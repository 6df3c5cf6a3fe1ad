//! The layer pass: for each query class, an in-process mirror of the
//! route `hxq` takes at this commit, timing every public call it makes
//! into a layer. Each call is also wrapped in a `bench.<layer>` obs span,
//! so the pass leaves a Chrome trace and each layer's self time.
//!
//! The mirror must give `hxq`'s answer: each run is checked against the
//! oracle like a real query. When `hxq` is rerouted and this mirror is
//! not, the pass fails or its `residual_ms` grows; it is never silently
//! stale.

use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::path::Path;
use std::time::Instant;

use hedgex::analyze::AnalyzedQuery;
use hedgex::hedge::NodeId;
use hedgex::obs;
use hedgex::prelude::*;
use hedgex::stream::StreamStats;
use hedgex_testkit::Json;

use crate::report::{fnv1a, median, Metric, Tally};
use crate::workload::{Class, Expect, Mode, Source, Workload};

/// A layer: one public entry point (or a small group of them) of one crate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    Read,
    Parse,
    ToHedge,
    Flatten,
    Drop,
    QueryParse,
    Compile,
    PathEval,
    Eval,
    Par,
    Facts,
    StreamRun,
    StreamFinish,
    StoreLoad,
    StoreQuery,
    Output,
    /// `DocumentStore::build`, in set-up.
    Build,
    /// `DocumentStore::save`, in set-up.
    Save,
}

/// The layers a query runs through, in pipeline order.
pub const QUERY_LAYERS: [Layer; 16] = [
    Layer::Read,
    Layer::Parse,
    Layer::ToHedge,
    Layer::Flatten,
    Layer::Drop,
    Layer::QueryParse,
    Layer::Compile,
    Layer::PathEval,
    Layer::Eval,
    Layer::Par,
    Layer::Facts,
    Layer::StreamRun,
    Layer::StreamFinish,
    Layer::StoreLoad,
    Layer::StoreQuery,
    Layer::Output,
];

/// The set-up layers reported (the rest of `hxq index` is ingestion, the
/// same calls a query makes).
pub const SETUP_LAYERS: [Layer; 2] = [Layer::Build, Layer::Save];

/// Query layers every workload exercises, so their times are never zero.
const ALWAYS: [Layer; 4] = [
    Layer::Read,
    Layer::QueryParse,
    Layer::Compile,
    Layer::Output,
];

impl Layer {
    /// `(metric, span)` names.
    fn names(self) -> (&'static str, &'static str) {
        match self {
            Layer::Read => ("hedgex.read_ms", "bench.hedgex.read"),
            Layer::Parse => ("xml.parse_ms", "bench.xml.parse"),
            Layer::ToHedge => ("xml.to_hedge_ms", "bench.xml.to_hedge"),
            Layer::Flatten => ("hedge.flatten_ms", "bench.hedge.flatten"),
            Layer::Drop => ("hedge.drop_ms", "bench.hedge.drop"),
            Layer::QueryParse => ("core.query_parse_ms", "bench.core.query_parse"),
            Layer::Compile => ("core.compile_ms", "bench.core.compile"),
            Layer::PathEval => ("core.path_eval_ms", "bench.core.path_eval"),
            Layer::Eval => ("core.eval_ms", "bench.core.eval"),
            Layer::Par => ("par.eval_ms", "bench.par.eval"),
            Layer::Facts => ("analyze.facts_ms", "bench.analyze.facts"),
            Layer::StreamRun => ("stream.run_ms", "bench.stream.run"),
            Layer::StreamFinish => ("stream.finish_ms", "bench.stream.finish"),
            Layer::StoreLoad => ("store.load_ms", "bench.store.load"),
            Layer::StoreQuery => ("store.query_ms", "bench.store.query"),
            Layer::Output => ("hedgex.output_ms", "bench.hedgex.output"),
            Layer::Build => ("store.build_ms", "bench.store.build"),
            Layer::Save => ("store.save_ms", "bench.store.save"),
        }
    }

    pub fn metric(self) -> &'static str {
        self.names().0
    }
}

/// How many layers there are: `Layer as usize` indexes per-layer arrays.
const LAYERS: usize = Layer::Save as usize + 1;

/// Milliseconds per layer for one mirrored run.
pub struct Timer {
    ms: [f64; LAYERS],
}

impl Timer {
    pub fn new() -> Timer {
        Timer { ms: [0.0; LAYERS] }
    }

    fn time<T>(&mut self, layer: Layer, f: impl FnOnce() -> T) -> T {
        let _span = obs::span(layer.names().1);
        let start = Instant::now();
        let out = f();
        self.ms[layer as usize] += start.elapsed().as_secs_f64() * 1e3;
        out
    }
}

const CFG: HedgeConfig = HedgeConfig {
    keep_text: true,
    keep_attrs: false,
};

/// What the evaluation produced, before output.
enum Found {
    Nodes(Vec<NodeId>),
    /// Per stored document.
    Docs(Vec<Vec<NodeId>>),
    Count(u64),
    Exists(bool),
}

/// One mirrored run: its answer, as `hxq` would print it, and counts.
#[derive(Default)]
pub struct Mirrored {
    pub exit: i32,
    pub digest: u64,
    pub matches: u64,
    pub dha_states: Option<u64>,
    pub stream: Option<StreamStats>,
    pub docs_queried: u64,
    pub docs_pruned: u64,
    pub ranges_skipped: u64,
}

impl Mirrored {
    pub fn check(&self, want: Expect) -> Result<(), String> {
        if (self.exit, self.digest) == (want.exit, want.digest) {
            Ok(())
        } else {
            Err(format!(
                "the in-process mirror disagrees with the oracle: exit {} digest {:016x}, \
                 expected exit {} digest {:016x} (hxq's route changed?)",
                self.exit, self.digest, want.exit, want.digest
            ))
        }
    }
}

/// Print the answer the way `hxq` does: Dewey lines (formatted into one
/// buffer by `lines`, timed as output), the count, or nothing with an
/// exit code.
fn answer(t: &mut Timer, found: &Found, lines: impl FnOnce(&mut String)) -> Mirrored {
    let matches = match found {
        Found::Nodes(hits) => hits.len() as u64,
        Found::Docs(docs) => docs.iter().map(|h| h.len() as u64).sum(),
        Found::Count(n) => *n,
        Found::Exists(b) => u64::from(*b),
    };
    let (exit, out) = match found {
        Found::Nodes(_) | Found::Docs(_) => (
            0,
            t.time(Layer::Output, || {
                let mut out = String::new();
                lines(&mut out);
                out
            }),
        ),
        Found::Count(n) => (0, t.time(Layer::Output, || format!("{n}\n"))),
        Found::Exists(b) => (if *b { 0 } else { 1 }, String::new()),
    };
    Mirrored {
        exit,
        digest: fnv1a(out.as_bytes()),
        matches,
        ..Mirrored::default()
    }
}

fn dewey_line(out: &mut String, prefix: &str, dewey: &[u32]) {
    let parts: Vec<String> = dewey.iter().map(u32::to_string).collect();
    out.push_str(&format!("{prefix}/{}\n", parts.join("/")));
}

fn eval_mode(mode: Mode) -> EvalMode {
    match mode {
        Mode::Locate => EvalMode::Locate,
        Mode::Count => EvalMode::Count,
        Mode::Exists => EvalMode::Exists,
    }
}

fn found_from(outcome: EvalOutcome) -> Found {
    match outcome {
        EvalOutcome::Count(n) => Found::Count(n),
        EvalOutcome::Exists(b) => Found::Exists(b),
        EvalOutcome::Located(n) => Found::Count(n as u64),
    }
}

/// A path query as `hxq` embeds it when it needs a PHR plan: the §5
/// embedding over every symbol interned so far.
fn path_as_phr(text: &str, ab: &mut Alphabet) -> Result<hedgex::core::Phr, String> {
    let path = parse_path(text, ab).map_err(|e| e.to_string())?;
    let syms: Vec<_> = ab.syms().collect();
    let vars: Vec<_> = ab.vars().collect();
    let z = ab.sub("hxq-universal");
    Ok(path.to_phr(&syms, &vars, z))
}

/// `hxq [--repeat N [--jobs J]] … FILE`.
fn mirror_file(
    w: &Workload,
    c: &Class,
    repeat: Option<(usize, usize)>,
    t: &mut Timer,
) -> Result<Mirrored, String> {
    let path = &w.docs[c.doc].path;
    let src = t
        .time(Layer::Read, || std::fs::read_to_string(path))
        .map_err(|e| e.to_string())?;
    let doc = t
        .time(Layer::Parse, || parse_xml(&src))
        .map_err(|e| e.to_string())?;
    let mut ab = Alphabet::new();
    let hedge = t.time(Layer::ToHedge, || to_hedge(&doc, &mut ab, CFG));
    let flat = t.time(Layer::Flatten, || FlatHedge::from_hedge(&hedge));
    let text = c.query.text();
    let mut dha_states = None;
    // Without --repeat/--jobs a path runs the top-down DFA; with them (or
    // as a PHR) the query becomes a PHR plan.
    let found = if c.query.is_path() && repeat.is_none() {
        let path = t
            .time(Layer::QueryParse, || parse_path(&text, &mut ab))
            .map_err(|e| e.to_string())?;
        let hits = t.time(Layer::PathEval, || path.locate(&flat));
        match c.mode {
            Mode::Locate => Found::Nodes(hits),
            Mode::Count => Found::Count(hits.len() as u64),
            Mode::Exists => Found::Exists(!hits.is_empty()),
        }
    } else {
        let phr = t.time(Layer::QueryParse, || {
            if c.query.is_path() {
                path_as_phr(&text, &mut ab)
            } else {
                parse_phr(&text, &mut ab).map_err(|e| e.to_string())
            }
        })?;
        let (n, jobs) = repeat.unwrap_or((1, 1));
        match (c.mode, repeat) {
            (Mode::Count | Mode::Exists, _) => {
                let plan = t.time(Layer::Compile, || Plan::compile(&phr));
                dha_states = Some(plan.compiled().stats.total_dha_states());
                let mode = eval_mode(c.mode);
                let outcome = if jobs > 1 {
                    t.time(Layer::Par, || {
                        hedgex::par::run_scoped(
                            jobs,
                            n,
                            |_| EvalScratch::new(),
                            |scratch, _| plan.eval_into(&flat, scratch, mode),
                        )
                        .pop()
                        .expect("at least one run")
                    })
                } else {
                    t.time(Layer::Eval, || {
                        let mut scratch = EvalScratch::new();
                        let mut out = plan.eval_into(&flat, &mut scratch, mode);
                        for _ in 1..n {
                            out = plan.eval_into(&flat, &mut scratch, mode);
                        }
                        out
                    })
                };
                found_from(outcome)
            }
            (Mode::Locate, Some(_)) => {
                let plan = t.time(Layer::Compile, || Plan::compile(&phr));
                dha_states = Some(plan.compiled().stats.total_dha_states());
                Found::Nodes(if jobs > 1 {
                    t.time(Layer::Par, || {
                        ParallelEvaluator::new(jobs).repeat(&plan, &flat, n)
                    })
                } else {
                    t.time(Layer::Eval, || {
                        let mut scratch = EvalScratch::new();
                        for _ in 0..n {
                            plan.locate_into(&flat, &mut scratch);
                        }
                        scratch.located().to_vec()
                    })
                })
            }
            (Mode::Locate, None) => {
                let compiled = t.time(Layer::Compile, || CompiledPhr::compile(&phr));
                dha_states = Some(compiled.stats.total_dha_states());
                Found::Nodes(t.time(Layer::Eval, || two_pass::locate(&compiled, &flat)))
            }
        }
    };
    let mut m = answer(t, &found, |out| {
        if let Found::Nodes(hits) = &found {
            for &n in hits {
                dewey_line(out, "", &flat.dewey(n));
            }
        }
    });
    t.time(Layer::Drop, || {
        drop(doc);
        drop(hedge);
    });
    m.dha_states = dha_states;
    Ok(m)
}

/// Read `bytes` back through an OS pipe fed by a writer thread, as `hxq`
/// reads a piped stdin.
fn read_pipe(bytes: &[u8]) -> std::io::Result<String> {
    let (mut reader, mut writer) = std::io::pipe()?;
    std::thread::scope(|s| {
        s.spawn(move || {
            let _ = writer.write_all(bytes);
        });
        let mut src = String::new();
        reader.read_to_string(&mut src)?;
        Ok(src)
    })
}

/// `hxq --stream … -`.
pub fn mirror_stream(c: &Class, stdin: &[u8], t: &mut Timer) -> Result<Mirrored, String> {
    let src = t
        .time(Layer::Read, || read_pipe(stdin))
        .map_err(|e| e.to_string())?;
    let mut ab = Alphabet::new();
    let text = c.query.text();
    let mut m = if c.query.is_path() {
        let path = t
            .time(Layer::QueryParse, || parse_path(&text, &mut ab))
            .map_err(|e| e.to_string())?;
        let mut sink = t.time(Layer::Compile, || {
            PathStream::new(&path, &ab)
                .exists(c.mode == Mode::Exists)
                .count_only(c.mode == Mode::Count)
                .collect_deweys(c.mode == Mode::Locate)
        });
        t.time(Layer::StreamRun, || {
            stream_xml(&src, &mut ab, CFG, &mut sink)
        })
        .map_err(|e| e.to_string())?;
        t.time(Layer::StreamFinish, || {
            sink.finish();
        });
        let found = match c.mode {
            Mode::Exists => Found::Exists(sink.found()),
            Mode::Count => Found::Count(sink.count()),
            Mode::Locate => Found::Nodes(sink.located().to_vec()),
        };
        let mut m = answer(t, &found, |out| {
            for d in sink.deweys() {
                dewey_line(out, "", d);
            }
        });
        m.stream = Some(sink.stats());
        m
    } else {
        let phr = t
            .time(Layer::QueryParse, || parse_phr(&text, &mut ab))
            .map_err(|e| e.to_string())?;
        let compiled = t.time(Layer::Compile, || CompiledPhr::compile(&phr));
        let mut sink = PhrStream::new(&compiled);
        t.time(Layer::StreamRun, || {
            stream_xml(&src, &mut ab, CFG, &mut sink)
        })
        .map_err(|e| e.to_string())?;
        let found = t.time(Layer::StreamFinish, || match c.mode {
            Mode::Count => Found::Count(sink.finish_count()),
            Mode::Exists => Found::Exists(sink.finish_exists()),
            Mode::Locate => Found::Nodes(sink.finish().to_vec()),
        });
        let mut m = answer(t, &found, |out| {
            if let Found::Nodes(hits) = &found {
                for &n in hits {
                    dewey_line(out, "", &sink.dewey(n));
                }
            }
        });
        m.stream = Some(sink.stats());
        m.dha_states = Some(compiled.stats.total_dha_states());
        m
    };
    m.docs_queried = 1;
    Ok(m)
}

/// `hxq --store STORE [--jobs J] …`.
fn mirror_store(w: &Workload, c: &Class, t: &mut Timer) -> Result<Mirrored, String> {
    let bytes = t
        .time(Layer::Read, || std::fs::read(&w.store_path))
        .map_err(|e| e.to_string())?;
    let store = t
        .time(Layer::StoreLoad, || DocumentStore::from_bytes(&bytes))
        .map_err(|e| e.to_string())?;
    let text = c.query.text();
    let (phr, facts) = if c.query.is_path() {
        t.time(Layer::QueryParse, || {
            let mut ab = store.alphabet().clone();
            let path = parse_path(&text, &mut ab).map_err(|e| e.to_string())?;
            let facts = PlanFacts {
                known_empty: false,
                why_empty: None,
                required_syms: path.required_syms().ok_or("benchmark paths are nonempty")?,
            };
            let syms: Vec<_> = ab.syms().collect();
            let vars: Vec<_> = ab.vars().collect();
            let z = ab.sub("hxq-universal");
            Ok::<_, String>((path.to_phr(&syms, &vars, z), facts))
        })?
    } else {
        let phr = t
            .time(Layer::QueryParse, || {
                let mut ab = store.alphabet().clone();
                parse_phr(&text, &mut ab)
            })
            .map_err(|e| e.to_string())?;
        let facts = t.time(Layer::Facts, || {
            AnalyzedQuery::new(&phr, None).plan_facts(None)
        });
        (phr, facts)
    };
    let plan = t.time(Layer::Compile, || Plan::compile(&phr).with_facts(facts));
    let (pruned, skipped) = (
        obs::counter_value("store.docs_pruned"),
        obs::counter_value("store.ranges_skipped"),
    );
    let jobs = usize::from(c.jobs);
    let found = t.time(Layer::StoreQuery, || {
        let query = hedgex::store::StoreQuery::new(&store, &plan);
        match c.mode {
            Mode::Locate => Found::Docs(query.locate_corpus(jobs)),
            Mode::Count => Found::Count(query.count_corpus(jobs).iter().sum()),
            Mode::Exists => Found::Exists(query.exists_corpus(jobs).iter().any(|&e| e)),
        }
    });
    let mut m = answer(t, &found, |out| {
        if let Found::Docs(located) = &found {
            for (doc, hits) in store.docs().iter().zip(located) {
                let prefix = format!("{}:", doc.name());
                for &node in hits {
                    dewey_line(out, &prefix, &doc.hedge().dewey(node));
                }
            }
        }
    });
    m.dha_states = Some(plan.compiled().stats.total_dha_states());
    m.docs_queried = store.len() as u64;
    m.docs_pruned = obs::counter_value("store.docs_pruned") - pruned;
    m.ranges_skipped = obs::counter_value("store.ranges_skipped") - skipped;
    Ok(m)
}

/// Mirror one query class.
pub fn mirror(
    w: &Workload,
    c: &Class,
    stdin: Option<&[u8]>,
    t: &mut Timer,
) -> Result<Mirrored, String> {
    match w.source {
        Source::File => mirror_file(w, c, None, t),
        Source::Repeat => mirror_file(w, c, Some((w.repeat as usize, usize::from(c.jobs))), t),
        Source::Stdin => mirror_stream(c, stdin.expect("stream classes carry their document"), t),
        Source::Store => mirror_store(w, c, t),
    }
}

/// Mirror `hxq index` over the workload's documents into `out`.
fn mirror_index(w: &Workload, out: &Path, t: &mut Timer) -> Result<(), String> {
    let mut files: Vec<(String, std::path::PathBuf)> = std::fs::read_dir(&w.index_dir)
        .map_err(|e| e.to_string())?
        .filter_map(Result::ok)
        .map(|e| (e.file_name().to_string_lossy().into_owned(), e.path()))
        .filter(|(_, p)| p.extension().and_then(|e| e.to_str()) == Some("xml"))
        .collect();
    files.sort();
    let mut ab = Alphabet::new();
    let mut docs = Vec::with_capacity(files.len());
    for (name, path) in files {
        let src = t
            .time(Layer::Read, || std::fs::read_to_string(&path))
            .map_err(|e| e.to_string())?;
        let doc = t
            .time(Layer::Parse, || parse_xml(&src))
            .map_err(|e| e.to_string())?;
        let hedge = t.time(Layer::ToHedge, || to_hedge(&doc, &mut ab, CFG));
        docs.push((
            name,
            t.time(Layer::Flatten, || FlatHedge::from_hedge(&hedge)),
        ));
        t.time(Layer::Drop, || {
            drop(hedge);
            drop(doc);
        });
    }
    let store = t.time(Layer::Build, || DocumentStore::build(ab, docs));
    t.time(Layer::Save, || store.save(out))
        .map_err(|e| e.to_string())
}

fn bump(counts: &mut BTreeMap<&'static str, f64>, key: &'static str, v: f64) {
    *counts.entry(key).or_default() += v;
}

/// The newest span id in the obs ring (0 when empty).
fn last_span_id() -> u64 {
    obs::spans().iter().map(|s| s.id).max().unwrap_or(0)
}

/// Wall and self nanoseconds of every `bench.*` span newer than `since`:
/// self time is the span's duration minus its children's.
fn bench_spans(since: u64, into: &mut BTreeMap<&'static str, (u64, u64)>) {
    let spans: Vec<_> = obs::spans().into_iter().filter(|s| s.id > since).collect();
    let mut children: BTreeMap<u64, u64> = BTreeMap::new();
    for s in &spans {
        if let Some(p) = s.parent {
            *children.entry(p).or_default() += s.wall_ns;
        }
    }
    for s in spans.iter().filter(|s| s.name.starts_with("bench.")) {
        let covered = children.get(&s.id).copied().unwrap_or(0);
        let e = into.entry(s.name).or_default();
        e.0 += s.wall_ns;
        e.1 += s.wall_ns.saturating_sub(covered);
    }
}

/// Runs per class; each layer reports its fastest.
const REPS: usize = 3;

/// One layer's line in the layer table.
pub struct LayerRow {
    pub name: &'static str,
    /// Class-count-weighted mean per query (set-up layers: per index run).
    pub ms: f64,
    /// Share of the e2e mean latency (set-up layers: of `setup_s`).
    pub share: f64,
    /// Share of the layer's span time not covered by the library's own
    /// spans inside it.
    pub self_share: Option<f64>,
}

/// What the layer pass reports for one workload.
pub struct LayerReport {
    pub per_layer: Vec<Metric>,
    /// Every layer, zero or not.
    pub table: Vec<LayerRow>,
}

/// Inputs to the layer pass from the timed pass and set-up.
pub struct Baseline<'a> {
    /// Each distinct class with its slot count.
    pub classes: &'a [(Class, usize)],
    /// Mean latency of the timed pass.
    pub e2e_mean_ms: f64,
    pub setup_s: f64,
    pub store_bytes: u64,
    pub store_fingerprint: u64,
}

/// Run the layer pass over every distinct class, write the span trace to
/// `trace_path`, and aggregate per-layer metrics (class-count-weighted
/// means per query).
pub fn layer_pass(
    w: &Workload,
    stdin: &[Option<Vec<u8>>],
    base: &Baseline<'_>,
    trace_path: &Path,
    tally: &mut Tally,
) -> LayerReport {
    let mut spans: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    let mut weighted = [0.0f64; LAYERS];
    let mut total = 0.0f64;
    let mut counts: BTreeMap<&'static str, f64> = BTreeMap::new();
    let (mut dha_sum, mut dha_weight) = (0.0, 0.0);
    let (mut exists_ratio, mut exists_weight) = (0.0, 0.0);
    let mut live_high_water = 0u64;
    // Like the timed rounds, every sweep runs all classes, so a class's
    // runs are spread over the pass; each layer keeps its fastest run, as
    // a class's timed latency does.
    let mut best = vec![[f64::INFINITY; LAYERS]; base.classes.len()];
    let mut last: Vec<Mirrored> = base.classes.iter().map(|_| Mirrored::default()).collect();
    for _ in 0..REPS {
        for (i, &(c, _)) in base.classes.iter().enumerate() {
            let since = last_span_id();
            let mut t = Timer::new();
            let result = mirror(w, &c, stdin[c.doc].as_deref(), &mut t).and_then(|m| {
                let checked = m.check(w.expect(&c));
                last[i] = m;
                checked
            });
            tally.record(|| format!("mirror of {c:?}"), result);
            bench_spans(since, &mut spans);
            for (b, ms) in best[i].iter_mut().zip(t.ms) {
                *b = b.min(ms);
            }
        }
    }
    for ((&(c, count), best), last) in base.classes.iter().zip(&best).zip(&last) {
        let k = count as f64;
        let doc = &w.docs[c.doc];
        for (slot, ms) in weighted.iter_mut().zip(best) {
            *slot += k * ms;
        }
        total += k;
        if w.source != Source::Store {
            bump(&mut counts, "xml.bytes_per_query", k * doc.xml_bytes as f64);
        }
        bump(&mut counts, "hedge.nodes_per_query", k * doc.nodes as f64);
        bump(
            &mut counts,
            "core.matches_per_query",
            k * last.matches as f64,
        );
        if let Some(d) = last.dha_states {
            dha_sum += k * d as f64;
            dha_weight += k;
        }
        if let Some(s) = last.stream {
            bump(&mut counts, "stream.events_per_query", k * s.events as f64);
            live_high_water = live_high_water.max(s.live_high_water as u64);
            if c.mode == Mode::Exists {
                exists_ratio += k * s.events as f64 / doc.events as f64;
                exists_weight += k;
            }
        }
        if last.docs_queried > 0 && w.source == Source::Store {
            bump(
                &mut counts,
                "store.docs_pruned_ratio",
                k * last.docs_pruned as f64 / last.docs_queried as f64,
            );
            bump(
                &mut counts,
                "store.ranges_skipped_per_query",
                k * last.ranges_skipped as f64,
            );
        }
    }

    // Set-up: mirror `hxq index` and check it writes the same store bytes.
    let mirrored_store = w.dir.join("mirror.hxst");
    let mut setup_runs: Vec<[f64; LAYERS]> = Vec::with_capacity(REPS);
    for _ in 0..REPS {
        let since = last_span_id();
        let mut t = Timer::new();
        let result = mirror_index(w, &mirrored_store, &mut t).and_then(|()| {
            let bytes = std::fs::read(&mirrored_store).map_err(|e| e.to_string())?;
            if fnv1a(&bytes) == base.store_fingerprint {
                Ok(())
            } else {
                Err("the mirrored index wrote different store bytes than hxq index".into())
            }
        });
        tally.record(|| "mirror of hxq index".into(), result);
        bench_spans(since, &mut spans);
        setup_runs.push(t.ms);
    }

    let trace = obs::trace_json();
    let trace_ok = std::fs::write(trace_path, format!("{trace}\n"))
        .map_err(|e| e.to_string())
        .and_then(|()| check_trace(trace_path));
    tally.record(|| format!("trace {}", trace_path.display()), trace_ok);

    let mean = |l: Layer| weighted[l as usize] / total.max(1.0);
    let residual = base.e2e_mean_ms - QUERY_LAYERS.iter().map(|&l| mean(l)).sum::<f64>();
    let setup_median = |l: Layer| {
        let v: Vec<f64> = setup_runs.iter().map(|r| r[l as usize]).collect();
        median(&v)
    };
    let self_share = |l: Layer| {
        let &(wall, own) = spans.get(l.names().1)?;
        Some(own as f64 / wall.max(1) as f64)
    };
    let mut table: Vec<LayerRow> = QUERY_LAYERS
        .iter()
        .map(|&l| LayerRow {
            name: l.metric(),
            ms: mean(l),
            share: mean(l) / base.e2e_mean_ms,
            self_share: self_share(l),
        })
        .collect();
    table.push(LayerRow {
        name: "residual_ms",
        ms: residual,
        share: residual / base.e2e_mean_ms,
        self_share: None,
    });
    table.extend(SETUP_LAYERS.iter().map(|&l| LayerRow {
        name: l.metric(),
        ms: setup_median(l),
        share: setup_median(l) / (base.setup_s * 1e3),
        self_share: self_share(l),
    }));

    // Times only for the layers every workload runs, so none reads zero;
    // a share for every layer; then the counts.
    let never_zero = |name: &str| {
        name == "residual_ms"
            || ALWAYS
                .iter()
                .chain(&SETUP_LAYERS)
                .any(|l| l.metric() == name)
    };
    let mut per_layer: Vec<Metric> = table
        .iter()
        .filter(|r| never_zero(r.name))
        .map(|r| Metric::new(r.name, r.ms, "ms"))
        .collect();
    per_layer.extend(
        table
            .iter()
            .map(|r| Metric::new(format!("{}.share", r.name), r.share, "ratio")),
    );
    let per_query = |k: &str| counts.get(k).copied().unwrap_or(0.0) / total.max(1.0);
    per_layer.extend([
        Metric::new(
            "xml.bytes_per_query",
            per_query("xml.bytes_per_query"),
            "count",
        ),
        Metric::new(
            "hedge.nodes_per_query",
            per_query("hedge.nodes_per_query"),
            "count",
        ),
        Metric::new(
            "core.matches_per_query",
            per_query("core.matches_per_query"),
            "count",
        ),
        Metric::new("core.dha_states", dha_sum / dha_weight.max(1.0), "count"),
        Metric::new(
            "stream.events_per_query",
            per_query("stream.events_per_query"),
            "count",
        ),
        Metric::new("stream.live_high_water", live_high_water as f64, "count"),
        Metric::new(
            "stream.exists_read_ratio",
            exists_ratio / exists_weight.max(1.0),
            "ratio",
        ),
        Metric::new(
            "store.docs_pruned_ratio",
            per_query("store.docs_pruned_ratio"),
            "ratio",
        ),
        Metric::new(
            "store.ranges_skipped_per_query",
            per_query("store.ranges_skipped_per_query"),
            "count",
        ),
        Metric::new("store.file_bytes", base.store_bytes as f64, "count"),
    ]);
    LayerReport { per_layer, table }
}

/// The written trace must load as Chrome trace-event JSON and hold the
/// bench's layer spans.
fn check_trace(path: &Path) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
    let json = Json::parse(&text)?;
    let events = json.as_arr().ok_or("trace is not a JSON array")?;
    let has_bench = events.iter().any(|e| {
        e.get("ph").and_then(Json::as_str) == Some("X")
            && e.get("name")
                .and_then(Json::as_str)
                .is_some_and(|n| n.starts_with("bench."))
    });
    if has_bench {
        Ok(())
    } else {
        Err("trace holds no bench.<layer> spans".into())
    }
}
