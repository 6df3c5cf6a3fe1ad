//! E12 — the end-to-end benchmark: `hxq` from bytes on disk to answer.
//!
//! Generates its inputs from `--seed`, drives the real release `hxq`
//! binary as a subprocess (closed loop, one client: the next query starts
//! when the previous one has exited), times each query from spawn to exit
//! with stdout drained, and checks every answer against an in-process
//! oracle. Three passes per workload:
//!
//! * **timed** — seeded rounds over the workload's query classes for
//!   `--seconds`, after set-up (`hxq index`, timed) and warm-up queries;
//! * **memory** — one run per query shape, polling the child's `VmHWM`;
//! * **layers** — an in-process mirror of `hxq`'s route per query class,
//!   timing each call into a layer (`--trace 1`).
//!
//! ```text
//! bash crates/bench/src/bin/e2e/run.sh --seed 1 --out target/e2e/run.json
//! bash crates/bench/src/bin/e2e/run.sh --workload file_cold --seed 1 --seconds 15 --trace 0
//! bash crates/bench/src/bin/e2e/run.sh --compare A.json B.json
//! ```
//!
//! See README.md next to this package for the workloads and metrics.

mod exec;
mod layers;
mod report;
mod workload;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use hedgex_testkit::Json;

use hedgex_testkit::Rng;

use exec::{Hxq, Outcome};
use report::{hex, metrics_json, percentile, ClassRow, Metric, Tally, WorkloadResult};
use workload::{Class, Source, Workload, WORKLOADS};

/// Untimed queries before the timed pass.
const WARMUP: usize = 5;
/// `hxq index` runs per set-up; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// The fewest timed rounds a run makes, however long they take.
const MIN_ROUNDS: usize = 3;
const DEFAULT_SECONDS: f64 = 16.0;
/// Bytes per MB in every reported MB figure.
const MB: f64 = 1e6;

const HELP: &str = "\
usage: e2e [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
           [--out REPORT.json] [--smoke] [--hxq PATH]
       e2e --compare A.json B.json

  --workload NAME  run one workload (file_cold, stream_stdin, store_corpus,
                   warm_repeat) and print its result as one JSON line last;
                   without it, run all four and every pass
  --seed N         input seed (default 1)
  --seconds S      timed-pass length per workload (default 16)
  --trace 0|1      0: timed and memory passes, end-to-end metrics;
                   1: timed and layer passes, per-layer metrics
  --out PATH       append this run to a report file (a set of runs)
  --smoke          tiny inputs, one round over 10 slots per workload
  --hxq PATH       the hxq binary (default $CARGO_TARGET_DIR/release/hxq)
  --compare A B    medians, quartiles and verdicts of two report files,
                   against the bounds in ./BENCHMARK.json";

struct Opts {
    workload: Option<&'static str>,
    seed: u64,
    seconds: f64,
    trace: Option<bool>,
    out: Option<PathBuf>,
    smoke: bool,
    hxq: PathBuf,
    compare: Option<(PathBuf, PathBuf)>,
}

fn target_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from)
}

fn parse_args() -> Result<Opts, String> {
    let mut opts = Opts {
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: None,
        out: None,
        smoke: false,
        hxq: target_dir().join("release").join("hxq"),
        compare: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = || it.next().ok_or(format!("option '{arg}' needs a value"));
        match arg.as_str() {
            "--workload" => {
                let name = value()?;
                opts.workload = Some(
                    WORKLOADS
                        .into_iter()
                        .find(|w| *w == name)
                        .ok_or(format!("unknown workload '{name}'"))?,
                );
            }
            "--seed" => opts.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                opts.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !opts.seconds.is_finite() || opts.seconds <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                opts.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got '{other}'")),
                })
            }
            "--out" => opts.out = Some(PathBuf::from(value()?)),
            "--smoke" => opts.smoke = true,
            "--hxq" => opts.hxq = PathBuf::from(value()?),
            "--compare" => {
                let a = PathBuf::from(value()?);
                let b = PathBuf::from(it.next().ok_or("--compare needs two report files")?);
                opts.compare = Some((a, b));
            }
            "--help" | "-h" => {
                println!("{HELP}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(opts)
}

/// The command line of one `hxq` run, for failure reports.
fn command_line(args: &[String]) -> String {
    let quoted: Vec<String> = args
        .iter()
        .map(|a| {
            if a.chars()
                .all(|c| c.is_ascii_alphanumeric() || "-_./".contains(c))
            {
                a.clone()
            } else {
                format!("'{a}'")
            }
        })
        .collect();
    format!("hxq {}", quoted.join(" "))
}

/// Run one class and record whether it answered correctly.
fn run_checked(
    hxq: &Hxq,
    w: &Workload,
    c: &Class,
    stdin: Option<&[u8]>,
    tally: &mut Tally,
) -> Result<Outcome, String> {
    let args = w.args(c);
    let out = hxq
        .run(&args, stdin)
        .map_err(|e| format!("cannot run hxq: {e}"))?;
    tally.record(|| command_line(&args), out.check(w.expect(c)));
    Ok(out)
}

/// One `hxq index` of the workload's documents into `out`; returns its
/// seconds. A repeat run must write the store the first run wrote, whose
/// FNV-1a is `same_as`.
fn index(
    hxq: &Hxq,
    w: &Workload,
    out: &Path,
    same_as: Option<u64>,
    tally: &mut Tally,
) -> Result<f64, String> {
    let args = w.index_args(out);
    let run = hxq
        .run(&args, None)
        .map_err(|e| format!("cannot run hxq: {e}"))?;
    let ok = match run.exit {
        Some(0) if !run.timed_out => match same_as {
            Some(fp) if std::fs::read(out).map(|b| report::fnv1a(&b)).ok() != Some(fp) => {
                Err("set-up wrote a different store than its first run".into())
            }
            _ => Ok(()),
        },
        _ => Err(format!("set-up failed: exit {:?}", run.exit)),
    };
    tally.record(|| command_line(&args), ok);
    Ok(run.ms / 1e3)
}

/// A label for the per-class table: query, mode, workers, document shape.
fn class_label(w: &Workload, c: &Class) -> String {
    let shape = w.docs[c.doc].name.split('_').next().unwrap_or("");
    format!("{} {} j{} {shape}", c.query.label(), c.mode.label(), c.jobs)
}

/// The memory pass: one run per query shape (query × mode × workers ×
/// document group), on the largest document of its group.
fn memory_pass(
    hxq: &Hxq,
    w: &Workload,
    stdin: &[Option<Vec<u8>>],
    tally: &mut Tally,
) -> Result<f64, String> {
    let mut shapes: Vec<Class> = Vec::new();
    for (c, _) in &w.classes {
        let group = w.docs[c.doc].group;
        let largest = (0..w.docs.len())
            .filter(|&d| w.docs[d].group == group)
            .max_by_key(|&d| w.docs[d].xml_bytes)
            .expect("a class's group holds its document");
        let shape = Class { doc: largest, ..*c };
        if !shapes.contains(&shape) {
            shapes.push(shape);
        }
    }
    let jobs: Vec<(Vec<String>, Option<&[u8]>)> = shapes
        .iter()
        .map(|c| (w.args(c), stdin[c.doc].as_deref()))
        .collect();
    let peaks = hxq
        .peak_rss_kb(&jobs)
        .map_err(|e| format!("memory pass: {e}"))?;
    let mut max_kb = 0;
    for (c, &(kb, exit)) in shapes.iter().zip(&peaks) {
        let want = w.expect(c).exit;
        let ok = if exit == Some(want) {
            Ok(())
        } else {
            Err(format!("memory pass: exit {exit:?}, expected {want}"))
        };
        tally.record(|| command_line(&w.args(c)), ok);
        max_kb = max_kb.max(kb);
    }
    if max_kb == 0 {
        return Err("memory pass: no VmHWM reading (is /proc mounted?)".into());
    }
    Ok(max_kb as f64 * 1024.0 / MB)
}

/// Which passes beside the timed one a run makes.
struct Stages {
    memory: bool,
    layers: bool,
}

fn run_workload(
    opts: &Opts,
    hxq: &Hxq,
    name: &'static str,
    stages: &Stages,
) -> Result<WorkloadResult, String> {
    let root = target_dir().join("e2e");
    let dir = root.join(opts.seed.to_string()).join(name);
    let started = Instant::now();
    let w = workload::generate(name, opts.seed, opts.smoke, &dir)
        .map_err(|e| format!("generating {name} under {}: {e}", dir.display()))?;
    eprintln!(
        "e2e: {name}: {} inputs, fingerprint {}, generated in {:.1} s",
        w.inputs.len(),
        hex(w.fingerprint),
        started.elapsed().as_secs_f64()
    );
    let mut tally = Tally::default();

    let mut setup_secs = vec![index(hxq, &w, &w.store_path, None, &mut tally)?];
    let store = std::fs::read(&w.store_path).map_err(|e| format!("reading the store: {e}"))?;
    let store_fingerprint = report::fnv1a(&store);
    let store_bytes = store.len() as u64;
    drop(store);

    let stdin: Vec<Option<Vec<u8>>> = w
        .docs
        .iter()
        .map(|d| match w.source {
            Source::Stdin => std::fs::read(&d.path).map(Some),
            _ => Ok(None),
        })
        .collect::<Result<_, _>>()
        .map_err(|e| format!("reading stream inputs: {e}"))?;
    let input = |c: &Class| stdin[c.doc].as_deref();

    let classes = &w.classes;
    if !opts.smoke {
        for (c, _) in classes.iter().take(WARMUP) {
            run_checked(hxq, &w, c, input(c), &mut tally)?;
        }
    }

    // The timed pass: rounds over the distinct classes, each round in a
    // fresh seeded order, until the rounds have taken `--seconds` and at
    // least MIN_ROUNDS ran. A class's latency is its fastest run: outside
    // load can slow a vCPU by up to 1.8x for seconds at a time, and a
    // class's runs, one per round and so spread over the whole pass,
    // rarely all land in such a stretch. For the same reason the set-up
    // repeats run one after each round, into a spare store file.
    let min_rounds = if opts.smoke { 1 } else { MIN_ROUNDS };
    let spare_store = w.dir.join("spare.hxst");
    let index_again =
        |tally: &mut Tally| index(hxq, &w, &spare_store, Some(store_fingerprint), tally);
    let mut rng = Rng::seed_from_u64(workload::sub_seed(opts.seed, name, 0));
    let mut order: Vec<usize> = (0..classes.len()).collect();
    let mut fastest = vec![f64::INFINITY; classes.len()];
    let (mut rounds, mut timed_s) = (0, 0.0);
    while rounds < min_rounds || (!opts.smoke && timed_s < opts.seconds) {
        let round_start = Instant::now();
        workload::shuffle(&mut order, &mut rng);
        for &i in &order {
            let c = &classes[i].0;
            let out = run_checked(hxq, &w, c, input(c), &mut tally)?;
            fastest[i] = fastest[i].min(out.ms);
        }
        timed_s += round_start.elapsed().as_secs_f64();
        rounds += 1;
        if setup_secs.len() < SETUP_REPS {
            setup_secs.push(index_again(&mut tally)?);
        }
    }
    while setup_secs.len() < SETUP_REPS {
        setup_secs.push(index_again(&mut tally)?);
    }
    let setup_s = report::median(&setup_secs);
    eprintln!(
        "e2e: {name}: {} classes x {rounds} rounds timed in {timed_s:.1} s",
        classes.len(),
    );

    // Each slot of the mix carries its class's latency.
    let slot_ms: Vec<f64> = classes
        .iter()
        .zip(&fastest)
        .flat_map(|(&(_, n), &ms)| std::iter::repeat_n(ms, n))
        .collect();
    let repeat = if w.source == Source::Repeat {
        w.repeat
    } else {
        1
    };
    let bytes: f64 = classes
        .iter()
        .map(|&(c, n)| n as f64 * w.docs[c.doc].xml_bytes as f64 * f64::from(repeat))
        .sum();
    let wall_ms: f64 = slot_ms.iter().sum();
    let e2e_mean_ms = wall_ms / slot_ms.len() as f64;

    let mut end_to_end = vec![
        Metric::new("latency_p50_ms", percentile(&slot_ms, 0.50), "ms"),
        Metric::new("latency_p95_ms", percentile(&slot_ms, 0.95), "ms"),
        Metric::new("input_mb_per_s", bytes / MB / (wall_ms / 1e3), "MB/s"),
        Metric::new("setup_s", setup_s, "s"),
    ];
    if stages.memory {
        let peak = memory_pass(hxq, &w, &stdin, &mut tally)?;
        end_to_end.push(Metric::new("peak_rss_mb", peak, "MB"));
    }
    end_to_end.push(Metric::new(
        "store_bytes_per_xml_byte",
        store_bytes as f64 / w.index_xml_bytes as f64,
        "ratio",
    ));

    // The per-class latency table, fastest class first.
    let mut table: Vec<ClassRow> = classes
        .iter()
        .zip(&fastest)
        .map(|(&(c, slots), &ms)| ClassRow {
            class: class_label(&w, &c),
            slots,
            fastest_ms: ms,
        })
        .collect();
    table.sort_by(|a, b| a.fastest_ms.total_cmp(&b.fastest_ms));

    let (mut per_layer, mut layers) = (Vec::new(), Vec::new());
    if stages.layers {
        let trace_path = root.join(format!("trace-{name}.json"));
        let base = layers::Baseline {
            classes,
            e2e_mean_ms,
            setup_s,
            store_bytes,
            store_fingerprint,
        };
        let report = layers::layer_pass(&w, &stdin, &base, &trace_path, &mut tally);
        print_layer_table(name, e2e_mean_ms, &report.table);
        per_layer = report.per_layer;
        layers = report.table;
    }

    std::fs::remove_dir_all(&dir).map_err(|e| format!("removing {}: {e}", dir.display()))?;
    // The seed directory goes too once no other workload's inputs are in it.
    let _ = std::fs::remove_dir(root.join(opts.seed.to_string()));
    eprintln!(
        "e2e: {name}: done in {:.1} s",
        started.elapsed().as_secs_f64()
    );
    Ok(WorkloadResult {
        name,
        fingerprint: w.fingerprint,
        store_fingerprint,
        inputs: w.inputs,
        tally,
        slots: slot_ms.len(),
        rounds,
        end_to_end,
        per_layer,
        classes: table,
        layers,
    })
}

fn print_layer_table(name: &str, e2e_mean_ms: f64, table: &[layers::LayerRow]) {
    println!(
        "{name}: layers (class-weighted mean per query, share of the e2e mean \
         {e2e_mean_ms:.3} ms; set-up layers per index run, share of setup_s)"
    );
    for r in table {
        let own = r
            .self_share
            .map_or(String::new(), |s| format!("  self {:>5.1}%", 100.0 * s));
        println!(
            "  {:<24} {:>10.3} ms  {:>6.1}%{own}",
            r.name,
            r.ms,
            100.0 * r.share
        );
    }
}

fn print_result(r: &WorkloadResult) {
    println!(
        "{}: {} classes x {} rounds timed over {} slots, {} of {} checks failed",
        r.name,
        r.classes.len(),
        r.rounds,
        r.slots,
        r.tally.failed,
        r.tally.attempted
    );
    if let Some(f) = &r.tally.first_failure {
        println!("  first failure: {f}");
    }
    for m in r.end_to_end.iter().chain(&r.per_layer) {
        println!("  {:<36} {:>14.4} {}", m.name, m.value, m.unit);
    }
    // Where p50 and p95 fall: a percentile near the edge of a class's
    // slot ranks moves with any change in the class order.
    let mut rank = 0;
    for row in &r.classes {
        let first = rank + 1;
        rank += row.slots;
        let marks: String = [(0.50, " <- p50"), (0.95, " <- p95")]
            .iter()
            .filter(|(p, _)| (first..=rank).contains(&((p * r.slots as f64).ceil() as usize)))
            .map(|(_, m)| *m)
            .collect();
        println!(
            "  class {:<28} slots {first:>3}-{rank:<3} fastest {:>10.3} ms{marks}",
            row.class, row.fastest_ms
        );
    }
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("e2e: {e} (try --help)");
            return ExitCode::from(2);
        }
    };
    if let Some((a, b)) = &opts.compare {
        return match report::compare(a, b, Path::new("BENCHMARK.json")) {
            Ok(false) => ExitCode::SUCCESS,
            Ok(true) => ExitCode::from(1),
            Err(e) => {
                eprintln!("e2e: {e}");
                ExitCode::from(2)
            }
        };
    }
    if !opts.hxq.is_file() {
        eprintln!(
            "e2e: no hxq binary at {} (run.sh builds it)",
            opts.hxq.display()
        );
        return ExitCode::from(2);
    }
    let hxq = Hxq::new(opts.hxq.clone());
    let (names, stages) = match opts.workload {
        Some(name) => {
            let layers = opts.trace.unwrap_or(false);
            (
                vec![name],
                Stages {
                    memory: !layers,
                    layers,
                },
            )
        }
        None => (
            WORKLOADS.to_vec(),
            Stages {
                memory: true,
                layers: opts.trace.unwrap_or(true),
            },
        ),
    };
    let mut results = Vec::new();
    for name in names {
        match run_workload(&opts, &hxq, name, &stages) {
            Ok(r) => {
                print_result(&r);
                results.push(r);
            }
            Err(e) => {
                eprintln!("e2e: {name}: {e}");
                return ExitCode::from(2);
            }
        }
    }
    if let Some(out) = &opts.out {
        let run = Json::obj([
            ("seed", Json::Num(opts.seed as f64)),
            ("smoke", Json::Bool(opts.smoke)),
            ("seconds", Json::Num(opts.seconds)),
            ("host", report::host()),
            (
                "workloads",
                Json::Arr(results.iter().map(WorkloadResult::to_json).collect()),
            ),
        ]);
        match report::append_run(out, run) {
            Ok(n) => eprintln!("e2e: report {} now holds {n} run(s)", out.display()),
            Err(e) => {
                eprintln!("e2e: {e}");
                return ExitCode::from(2);
            }
        }
    }
    let failed: u64 = results.iter().map(|r| r.tally.failed).sum();
    if opts.workload.is_some() {
        // The one-line result, last on stdout.
        let r = &results[0];
        let metrics = if stages.layers {
            &r.per_layer
        } else {
            &r.end_to_end
        };
        let line = Json::obj([
            ("correct", Json::Bool(r.tally.failed == 0)),
            ("attempted", Json::Num(r.tally.attempted as f64)),
            ("failed", Json::Num(r.tally.failed as f64)),
            ("metrics", metrics_json(metrics)),
        ]);
        println!("{line}");
        return ExitCode::SUCCESS;
    }
    if failed > 0 {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}
