//! One run of one query: the pipeline every `hxq` query goes through.
//!
//! [`run`] takes a [`Request`] from its source (a file or stdin, or a
//! persistent store) through one of three phase sequences
//!
//! ```text
//! arena:  query parse → parse → compile → eval → output
//! stream: query parse → compile → stream → finish → output
//! store:  load → query parse → compile → eval → output
//! ```
//!
//! with one [`Plan`] and one caller-supplied writer. The query is parsed
//! first on every route, so a malformed query is a usage error whatever
//! the document holds. A file or stdin is never read whole: the parse (or
//! the stream) reads it in chunks through one reused window, so its read
//! is part of that phase, and the obs counter `xml.read_ns` says how much
//! of it was spent inside `read`. The request picks the route: a path
//! query only needs the DFA states of a node's open ancestors (§8), so
//! from a file or stdin it streams through the plan's own automaton and
//! builds no tree, unless `mark`, `subhedge` or `repeat` needs the
//! arena; a PHR match
//! depends on its younger siblings (§7), so a PHR always runs on the
//! document's arena. Each layer is timed once, with
//! `Instant` and an obs span of the same name, so a [`Report`]'s phases are
//! spans of the `--trace` timeline. The report describes that same run:
//! sizes are read off the plan that answered, and nothing is compiled or
//! evaluated again to be measured. Its `metrics` and `trace` are rendered
//! only when a report is requested.

use std::fmt;
use std::fs::File;
use std::io::{self, Read, Write};
use std::time::Instant;

use hedgex_core::plan::Backend;
use hedgex_core::{parse_hre, parse_path, parse_phr, CompiledSelect, EvalMode, EvalOutcome};
use hedgex_core::{EvalScratch, Hre, PathExpr, Phr, Plan, SelectScratch};
use hedgex_hedge::dewey::write_line;
use hedgex_hedge::{Alphabet, DeweyWriter};
use hedgex_obs as obs;
use hedgex_store::{DocumentStore, StoreQuery};
use hedgex_stream::{PathStream, StreamStats};
use hedgex_testkit::Json;
use hedgex_xml::{parse_flat_read, stream_read, write_xml, HedgeConfig, ReadError};

/// Version of the [`Report`] JSON layout.
pub const REPORT_SCHEMA: u32 = 1;

/// Where the documents come from.
#[derive(Debug, Clone)]
pub enum Source {
    /// An XML file.
    File(String),
    /// XML on standard input.
    Stdin,
    /// Every document of a store written by `hxq index`.
    Store(String),
}

/// The query text, in either syntax.
#[derive(Debug, Clone)]
pub enum Query {
    /// A classical path expression (Section 8).
    Path(String),
    /// A pointed hedge representation (Definition 18).
    Phr(String),
}

/// Everything one run needs; the route follows from it. Combinations
/// `hxq` rejects (a stored `mark`/`subhedge`) are not checked here.
#[derive(Debug, Clone)]
pub struct Request {
    /// Where the documents come from.
    pub source: Source,
    /// The query.
    pub query: Query,
    /// The subhedge condition of `select(e₁, e₂)`, as HRE text (a file or
    /// stdin only: a store run parses but ignores it).
    pub subhedge: Option<String>,
    /// Locate, count or exists.
    pub mode: EvalMode,
    /// Write the document with `hx:match="1"` on the matches instead of
    /// their addresses.
    pub mark: bool,
    /// How XML maps to a hedge (attributes as `attr:name` children or not).
    pub config: HedgeConfig,
    /// Evaluate this many times on the one plan and return a
    /// [`RepeatSummary`]; `None` evaluates once.
    pub repeat: Option<u64>,
    /// Worker threads: a document's repeated runs, or a store's documents,
    /// spread over them.
    pub jobs: usize,
    /// Build a [`Report`] of the run.
    pub report: bool,
}

/// Why a run stopped without an answer.
#[derive(Debug)]
pub enum RunError {
    /// The query or subhedge text does not parse.
    Query(String),
    /// The input cannot be read or parsed, or the store cannot be loaded.
    Input(String),
    /// Writing the answer failed (a closed pipe included).
    Output(io::Error),
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::Query(msg) | RunError::Input(msg) => f.write_str(msg),
            RunError::Output(e) => write!(f, "stdout: {e}"),
        }
    }
}

/// What a finished run hands back besides the answer it wrote.
pub struct RunResult {
    /// The answer, in the requested mode.
    pub outcome: EvalOutcome,
    /// The `--repeat` summary, when repeats were requested.
    pub repeat: Option<RepeatSummary>,
    /// The report of this run, when one was requested.
    pub report: Option<Report>,
}

/// Aggregate timing of a repeated evaluation (compilation excluded).
#[derive(Debug, Clone, Copy)]
pub struct RepeatSummary {
    /// Number of evaluations.
    pub runs: u64,
    /// Wall time of all of them, in nanoseconds.
    pub wall_ns: u64,
    /// Nodes one evaluation covers.
    pub nodes: u64,
    /// Worker threads.
    pub jobs: usize,
}

impl fmt::Display for RepeatSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let total_ms = self.wall_ns as f64 / 1e6;
        let nodes_per_s = (self.nodes * self.runs) as f64 / (total_ms / 1e3).max(1e-9);
        let per_run = total_ms / self.runs as f64;
        write!(f, "repeat: {} runs in {total_ms:.3} ms ", self.runs)?;
        write!(f, "({per_run:.3} ms/run, {nodes_per_s:.0} nodes/s")?;
        if self.jobs > 1 {
            write!(f, ", {} workers", self.jobs)?;
        }
        f.write_str(")")
    }
}

/// One timed layer of a run.
#[derive(Debug, Clone)]
pub struct Phase {
    /// The layer's name, which is also its obs span's name.
    pub name: &'static str,
    /// Wall time in nanoseconds.
    pub wall_ns: u64,
}

/// The report of one run: where its time went and what answered. The
/// phases plus `unattributed_ns` sum to `wall_ns`.
pub struct Report {
    /// `file`, `stdin`, `stream` or `store`.
    pub source: &'static str,
    /// `path` or `phr`.
    pub query: &'static str,
    /// The mode that answered.
    pub mode: EvalMode,
    /// Per-layer wall times, in execution order.
    pub phases: Vec<Phase>,
    /// Wall time of the whole run, report included.
    pub wall_ns: u64,
    /// The part of `wall_ns` no phase covers.
    pub unattributed_ns: u64,
    /// Nodes the run read (summed over a store's documents).
    pub nodes: u64,
    /// The answer's match count (for Exists, 1 on a match and 0 without).
    pub located: u64,
    /// The plan that answered; its automata are the report's sizes.
    pub plan: Plan,
    /// Event and memory counters of a streaming run.
    pub stream: Option<StreamStats>,
    /// Snapshot of the obs registry (`{"enabled": false}` when obs is
    /// compiled out); store counters ride here.
    pub metrics: Json,
    /// Chrome trace-event timeline of the spans recorded so far.
    pub trace: Json,
}

impl Report {
    /// Render as JSON (round-trips through `hedgex_testkit::Json::parse`).
    /// Every report has the same top-level keys; `plan` holds the DFA's
    /// states or the PHR automata, and `stream` is `null` unless the run
    /// streamed.
    pub fn to_json(&self) -> Json {
        let num = |n: u64| Json::Num(n as f64);
        let name = |s: &str| Json::Str(s.into());
        let phases = self
            .phases
            .iter()
            .map(|p| Json::obj([("name", name(p.name)), ("wall_ns", num(p.wall_ns))]));
        let plan = match self.plan.backend() {
            Backend::Path(p) => Json::obj([
                ("backend", name("path")),
                ("dfa_states", num(p.num_states() as u64)),
            ]),
            Backend::Phr(c) => {
                let s = &c.stats;
                let components = s.components.iter().zip(&s.reduced_components);
                let components = components.map(|(&(n, d), &r)| {
                    let sizes = [("nha_states", n), ("dha_states", d), ("dha_reduced", r)];
                    Json::obj(sizes.map(|(k, v)| (k, num(v.into()))))
                });
                Json::obj([
                    ("backend", name("phr")),
                    ("components", Json::Arr(components.collect())),
                    ("nha_states", num(s.total_nha_states())),
                    ("dha_states", num(s.total_dha_states())),
                    ("blowup_ratio", Json::Num(s.blowup_ratio())),
                    ("m_states", num(c.m.num_states().into())),
                    ("eq_classes", num(c.classes.num_classes() as u64)),
                    ("n_states", num(c.n_states_materialized() as u64)),
                    ("pruned_states", num(s.pruned_states())),
                ])
            }
        };
        let stream = self.stream.map_or(Json::Null, |s| {
            Json::obj([
                ("events", num(s.events)),
                ("depth_high_water", num(s.depth_high_water as u64)),
                ("live_high_water", num(s.live_high_water as u64)),
                ("early_exit", Json::Bool(s.early_exit)),
            ])
        });
        Json::obj([
            ("schema", num(REPORT_SCHEMA.into())),
            ("source", name(self.source)),
            ("query", name(self.query)),
            ("mode", Json::Str(format!("{:?}", self.mode).to_lowercase())),
            ("phases", Json::Arr(phases.collect())),
            ("wall_ns", num(self.wall_ns)),
            ("unattributed_ns", num(self.unattributed_ns)),
            ("nodes", num(self.nodes)),
            ("located", num(self.located)),
            ("plan", plan),
            ("stream", stream),
            ("metrics", self.metrics.clone()),
            ("trace", self.trace.clone()),
        ])
    }
}

/// The human-readable form `hxq --explain` prints.
impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (query, source) = (self.query, self.source);
        let mode = format!("{:?}", self.mode).to_lowercase();
        writeln!(f, "explain: --{query} from {source}, {mode}")?;
        let line = |f: &mut fmt::Formatter<'_>, name: &str, ns: u64| {
            writeln!(f, "  {name:<20} {:>12.3} ms", ns as f64 / 1e6)
        };
        for p in &self.phases {
            line(f, p.name, p.wall_ns)?;
        }
        line(f, "unattributed", self.unattributed_ns)?;
        line(f, "wall", self.wall_ns)?;
        match self.plan.backend() {
            Backend::Path(p) => writeln!(f, "  path DFA states {}", p.num_states())?,
            Backend::Phr(c) => {
                let s = &c.stats;
                let (nha, dha) = (s.total_nha_states(), s.total_dha_states());
                let (blowup, pruned) = (s.blowup_ratio(), s.pruned_states());
                write!(
                    f,
                    "  components: {} (NHA states {nha}, ",
                    s.components.len()
                )?;
                writeln!(f, "DHA states {dha}, blowup {blowup:.2}x, pruned {pruned})")?;
                let (m, n) = (c.m.num_states(), c.n_states_materialized());
                let classes = c.classes.num_classes();
                writeln!(f, "  M states {m}, eq-classes {classes}, N states {n}")?;
            }
        }
        if let Some(s) = &self.stream {
            let (events, depth) = (s.events, s.depth_high_water);
            let (live, stop) = (s.live_high_water, s.early_exit);
            write!(f, "  stream: {events} events, depth high-water {depth}, ")?;
            writeln!(f, "live high-water {live}, early exit {stop}")?;
        }
        writeln!(f, "  nodes {}, located {}", self.nodes, self.located)
    }
}

/// The run's phase list: each layer timed once, under an obs span of the
/// same name.
struct Clock {
    start: Instant,
    phases: Vec<Phase>,
}

impl Clock {
    fn phase<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let _span = obs::span(name);
        let t = Instant::now();
        let out = f();
        let wall_ns = t.elapsed().as_nanos() as u64;
        self.phases.push(Phase { name, wall_ns });
        out
    }

    /// The [`RepeatSummary`] of the eval phase just timed, when asked for.
    fn summary(&self, req: &Request, nodes: u64) -> Option<RepeatSummary> {
        let wall_ns = self.phases.last().map_or(0, |p| p.wall_ns);
        let jobs = req.jobs;
        req.repeat.map(|runs| RepeatSummary {
            runs,
            wall_ns,
            nodes,
            jobs,
        })
    }
}

/// What a route hands back to [`run`] besides the answer it wrote: the
/// plan that answered, the outcome, the nodes read, a stream's counters
/// and the repeat summary.
type Answered = (
    Plan,
    EvalOutcome,
    u64,
    Option<StreamStats>,
    Option<RepeatSummary>,
);
type Ran = Result<Answered, RunError>;

/// Run `req` once, writing its answer to `out`: one Dewey address per
/// line (prefixed `NAME:` over a store), the count, the marked document,
/// or nothing for Exists (the outcome is the answer).
pub fn run<W: Write>(req: &Request, out: &mut W) -> Result<RunResult, RunError> {
    let mut clock = Clock {
        start: Instant::now(),
        phases: Vec::new(),
    };
    let (plan, outcome, nodes, stats, repeat) = match &req.source {
        Source::Store(path) => run_store(req, path, &mut clock, out)?,
        Source::File(path) => {
            let file = File::open(path).map_err(|e| RunError::Input(format!("{path}: {e}")))?;
            run_input(req, (path, Box::new(file)), &mut clock, out)?
        }
        Source::Stdin => {
            let stdin = Box::new(io::stdin().lock());
            run_input(req, ("stdin", stdin), &mut clock, out)?
        }
    };
    let report = req.report.then(|| {
        // The report's own layer: rendering the registry and the span
        // ring is real work on large runs, so it is timed like the others.
        let (metrics, trace) =
            clock.phase("hedgex.report", || (obs::snapshot(), obs::trace_json()));
        let attributed: u64 = clock.phases.iter().map(|p| p.wall_ns).sum();
        let unattributed_ns = (clock.start.elapsed().as_nanos() as u64).saturating_sub(attributed);
        Report {
            source: match (&req.source, stats.is_some()) {
                (Source::Store(_), _) => "store",
                (_, true) => "stream",
                (Source::File(_), _) => "file",
                (Source::Stdin, _) => "stdin",
            },
            query: match req.query {
                Query::Path(_) => "path",
                Query::Phr(_) => "phr",
            },
            mode: req.mode,
            phases: clock.phases,
            wall_ns: attributed + unattributed_ns,
            unattributed_ns,
            nodes,
            located: outcome.matched(),
            plan,
            stream: stats,
            metrics,
            trace,
        }
    });
    Ok(RunResult {
        outcome,
        repeat,
        report,
    })
}

/// A file or stdin, named for its read errors.
type Input<'a> = (&'a str, Box<dyn Read>);

/// A failed read names its input; a malformed document says where.
fn input_error(name: &str, e: ReadError) -> RunError {
    match e {
        ReadError::Io(e) => RunError::Input(format!("{name}: {e}")),
        ReadError::Xml(e) => RunError::Input(e.to_string()),
    }
}

/// A parsed query, ready to compile into its [`Plan`], and the parsed
/// subhedge of `select(e₁, e₂)`, if any.
type Parsed = (ParsedQuery, Option<Hre>);

enum ParsedQuery {
    Path(PathExpr),
    Phr(Phr),
}

/// Parse the subhedge (if any) and the query into `ab`: one phase, run
/// before the document is parsed on every route, so a malformed query is
/// a usage error whatever the document holds.
fn query_parse(req: &Request, ab: &mut Alphabet, clock: &mut Clock) -> Result<Parsed, RunError> {
    clock.phase("hedgex.query_parse", || {
        let subhedge = req
            .subhedge
            .as_deref()
            .map(|e| parse_hre(e, ab))
            .transpose();
        let subhedge = subhedge.map_err(|e| RunError::Query(format!("subhedge: {e}")))?;
        let query = match &req.query {
            Query::Path(text) => parse_path(text, ab).map(ParsedQuery::Path),
            Query::Phr(text) => parse_phr(text, ab).map(ParsedQuery::Phr),
        };
        let query = query.map_err(|e| RunError::Query(format!("query: {e}")))?;
        Ok((query, subhedge))
    })
}

/// Compile the plan — `--phr` on Algorithm 1, `--path` on the §8 DFA
/// tabulated over `ab` — and `select(e₁, e₂)` over it: one phase.
fn compile(
    (query, subhedge): Parsed,
    ab: &Alphabet,
    clock: &mut Clock,
) -> (Plan, Option<CompiledSelect>) {
    clock.phase("hedgex.compile", || {
        let plan = match query {
            ParsedQuery::Path(path) => Plan::path(&path, ab),
            ParsedQuery::Phr(phr) => Plan::compile(&phr),
        };
        let select = subhedge.map(|e| CompiledSelect::new(plan.clone(), &e));
        (plan, select)
    })
}

/// The one repeat loop: evaluate `run` `runs` times reusing scratches —
/// sequentially into one scratch for `jobs <= 1`, otherwise spread over
/// `jobs` workers with one scratch each — and return the last answer.
/// Every other answer is dropped as soon as it is made, so at most one
/// answer per worker plus the kept one are alive at once, whatever `runs`.
fn repeated<S, T: Send>(
    runs: u64,
    jobs: usize,
    scratch: impl Fn() -> S + Sync,
    run: impl Fn(&mut S) -> T + Sync,
) -> T {
    if jobs > 1 {
        let last = runs.max(1) as usize - 1;
        let mut answers = hedgex_par::run_scoped(
            jobs,
            last + 1,
            |_| scratch(),
            |s, i| {
                let answer = run(s);
                (i == last).then_some(answer)
            },
        );
        return answers
            .pop()
            .flatten()
            .expect("the last run keeps its answer");
    }
    let mut s = scratch();
    (1..runs).fold(run(&mut s), |_, _| run(&mut s))
}

/// The one answer printer. Locate runs `lines`, which writes one
/// `[NAME:]/d₁/d₂/…` line per match with [`write_line`] (from a
/// [`DeweyWriter`] wherever there is an arena); Count writes the number (a
/// count of 0 is an answer too), Exists nothing. Flushes, so the output
/// phase covers the whole write.
fn print_answer<W: Write>(
    out: &mut W,
    outcome: EvalOutcome,
    lines: impl FnOnce(&mut W) -> io::Result<()>,
) -> io::Result<()> {
    match outcome {
        EvalOutcome::Located(_) => lines(out)?,
        EvalOutcome::Count(n) => writeln!(out, "{n}")?,
        EvalOutcome::Exists(_) => {}
    }
    out.flush()
}

/// A file or stdin: a path query streams, unless `mark`, `subhedge` or
/// `repeat` needs the arena.
fn run_input<W: Write>(req: &Request, input: Input, clock: &mut Clock, out: &mut W) -> Ran {
    let needs_arena = req.mark || req.subhedge.is_some() || req.repeat.is_some();
    match req.query {
        Query::Path(_) if !needs_arena => run_stream(req, input, clock, out),
        _ => run_document(req, input, clock, out),
    }
}

/// A file or stdin, parsed into one arena and evaluated on it.
fn run_document<W: Write>(req: &Request, input: Input, clock: &mut Clock, out: &mut W) -> Ran {
    let mut ab = Alphabet::new();
    let parsed = query_parse(req, &mut ab, clock)?;
    let (name, reader) = input;
    let flat = clock.phase("hedgex.parse", || {
        parse_flat_read(reader, &mut ab, req.config)
    });
    let flat = flat.map_err(|e| input_error(name, e))?;
    let (plan, select) = compile(parsed, &ab, clock);
    let (mode, jobs, runs) = (req.mode, req.jobs, req.repeat.unwrap_or(1));
    let (outcome, hits) = clock.phase("hedgex.eval", || match &select {
        // select(e₁, e₂) filters the envelope's match list in every mode.
        Some(select) => repeated(runs, jobs, SelectScratch::new, |scratch| {
            let hits = select.locate_into(&flat, scratch).to_vec();
            let outcome = match mode {
                EvalMode::Locate => EvalOutcome::Located(hits.len()),
                EvalMode::Count => EvalOutcome::Count(hits.len() as u64),
                EvalMode::Exists => EvalOutcome::Exists(!hits.is_empty()),
            };
            (outcome, hits)
        }),
        // Count and Exists never materialize the match set: the list
        // stays empty.
        None => repeated(runs, jobs, EvalScratch::new, |scratch| {
            let outcome = plan.eval_into(&flat, scratch, mode);
            (outcome, scratch.located().to_vec())
        }),
    });
    let nodes = flat.num_nodes() as u64;
    let repeat = clock.summary(req, nodes);
    let written = clock.phase("hedgex.output", || {
        if !req.mark {
            let lines = |out: &mut W| DeweyWriter::new(&flat).write_lines(out, None, &hits);
            return print_answer(out, outcome, lines);
        }
        let mut marks = vec![false; flat.num_nodes()];
        for &n in &hits {
            marks[n as usize] = true;
        }
        out.write_all(write_xml(&flat, &ab, Some(&marks)).as_bytes())?;
        out.flush()
    });
    written.map_err(RunError::Output)?;
    Ok((plan, outcome, nodes, None, repeat))
}

/// A path query over a file or stdin, evaluated during its parse by a sink
/// on the plan's own DFA with O(depth) state: Exists stops parsing, and
/// reading, at the first match, and Count records no match.
fn run_stream<W: Write>(req: &Request, input: Input, clock: &mut Clock, out: &mut W) -> Ran {
    let mut ab = Alphabet::new();
    let parsed = query_parse(req, &mut ab, clock)?;
    let (plan, _) = compile(parsed, &ab, clock);
    let Backend::Path(dfa) = plan.backend() else {
        unreachable!("a path query compiles to a path plan")
    };
    let mode = req.mode;
    let mut sink = PathStream::from_compiled(dfa.clone())
        .exists(mode == EvalMode::Exists)
        .count_only(mode == EvalMode::Count)
        .record_addresses(mode == EvalMode::Locate);
    let (name, reader) = input;
    let streamed = clock.phase("hedgex.stream", || {
        stream_read(reader, &mut ab, req.config, &mut sink)
    });
    streamed.map_err(|e| input_error(name, e))?;
    clock.phase("hedgex.finish", || sink.finish().len());
    let outcome = match mode {
        EvalMode::Locate => EvalOutcome::Located(sink.located().len()),
        EvalMode::Count => EvalOutcome::Count(sink.count()),
        EvalMode::Exists => EvalOutcome::Exists(sink.found()),
    };
    let written = clock.phase("hedgex.output", || {
        let lines = |out: &mut W| sink.try_for_each_address(|a| write_line(out, None, a));
        print_answer(out, outcome, lines)
    });
    written.map_err(RunError::Output)?;
    let nodes = sink.num_nodes() as u64;
    Ok((plan, outcome, nodes, Some(sink.stats()), None))
}

/// Every document of a store. The plan carries the structural facts it
/// derives from the query, so a document missing a required symbol costs
/// one postings probe, and the traversal visits only subtrees whose
/// preorder range holds a candidate node.
fn run_store<W: Write>(req: &Request, path: &str, clock: &mut Clock, out: &mut W) -> Ran {
    let store = clock.phase("hedgex.load", || DocumentStore::load(path.as_ref()));
    let store = store.map_err(|e| RunError::Input(format!("{path}: {e}")))?;
    // Queries parse against the store's alphabet so symbol ids line up
    // with the postings; new symbols intern past the end and simply have
    // empty postings everywhere.
    let mut ab = store.alphabet().clone();
    let parsed = query_parse(req, &mut ab, clock)?;
    let (plan, _) = compile(parsed, &ab, clock);
    let (mode, jobs, runs) = (req.mode, req.jobs, req.repeat.unwrap_or(1));
    // Each run sweeps the corpus on `jobs` workers, so the runs themselves
    // go one after another.
    let sweep = StoreQuery::new(&store, &plan);
    let sweep_once = |_: &mut ()| match mode {
        EvalMode::Locate => {
            let located = sweep.locate_corpus(jobs);
            (
                EvalOutcome::Located(located.iter().map(Vec::len).sum()),
                located,
            )
        }
        EvalMode::Count => (
            EvalOutcome::Count(sweep.count_corpus(jobs).iter().sum()),
            vec![],
        ),
        EvalMode::Exists => {
            let found = sweep.exists_corpus(jobs).contains(&true);
            (EvalOutcome::Exists(found), vec![])
        }
    };
    let (outcome, located) = clock.phase("hedgex.eval", || repeated(runs, 1, || (), sweep_once));
    let nodes = store.total_nodes();
    let repeat = clock.summary(req, nodes);
    let written = clock.phase("hedgex.output", || {
        let lines = |out: &mut W| {
            let mut docs = store.docs().iter().zip(&located);
            docs.try_for_each(|(doc, hits)| {
                DeweyWriter::new(doc.hedge()).write_lines(out, Some(doc.name()), hits)
            })
        };
        print_answer(out, outcome, lines)
    });
    written.map_err(RunError::Output)?;
    Ok((plan, outcome, nodes, None, repeat))
}

#[cfg(test)]
mod tests {
    use super::repeated;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// An answer that counts how many of its kind are alive.
    struct Counted<'a>(&'a AtomicUsize);

    impl Drop for Counted<'_> {
        fn drop(&mut self) {
            self.0.fetch_sub(1, Ordering::SeqCst);
        }
    }

    #[test]
    fn repeat_keeps_at_most_one_answer_per_worker_alive() {
        for jobs in [1, 2, 4] {
            let (live, peak, runs) = (
                AtomicUsize::new(0),
                AtomicUsize::new(0),
                AtomicUsize::new(0),
            );
            let answer = repeated(
                500,
                jobs,
                || (),
                |()| {
                    runs.fetch_add(1, Ordering::SeqCst);
                    peak.fetch_max(live.fetch_add(1, Ordering::SeqCst) + 1, Ordering::SeqCst);
                    Counted(&live)
                },
            );
            assert_eq!(runs.load(Ordering::SeqCst), 500, "{jobs} jobs");
            assert_eq!(
                live.load(Ordering::SeqCst),
                1,
                "{jobs} jobs: only the kept answer"
            );
            let peak = peak.load(Ordering::SeqCst);
            assert!(
                peak <= jobs + 1,
                "{jobs} jobs: {peak} answers alive at once"
            );
            drop(answer);
        }
    }
}
