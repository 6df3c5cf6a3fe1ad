//! `hxq` — query XML documents with extended path expressions.
//!
//! ```text
//! hxq --path  'article section* figure'  doc.xml     # classical path expr
//! hxq --phr   '[…;figure;…][…]'          doc.xml     # full PHR syntax
//! hxq --subhedge 'caption<$#text>' --path '…' doc.xml # select(e1, e2)
//! hxq … --mark                                        # print marked XML
//! hxq … --explain                                     # per-phase report
//! hxq … -                                             # read from stdin
//! hxq --stream --path '…' -                           # evaluate during the
//!                                                     # parse, O(depth) memory
//! hxq --stream --exists --path '…' doc.xml            # stop at first match
//! hxq --count --phr '…' doc.xml                       # print the match count
//! hxq --stream --count --path '…' -                   # count a stdin stream,
//!                                                     # O(depth) memory
//! hxq check '[…;figure;…]' --schema HRE               # static analysis,
//!                                                     # no document at all
//! hxq index corpus/ --out corpus.hxst                 # parse + index once
//! hxq --store corpus.hxst --path '…'                  # indexed, pruned
//!                                                     # queries over it all
//! ```
//!
//! Prints the Dewey addresses of located nodes (one per line), or with
//! `--mark` the whole document with `hx:match="1"` on matches. Results go
//! to stdout; diagnostics and `--explain` reports go to stderr. Exit code
//! 0 on success, 1 on runtime errors (malformed or truncated input
//! included), 2 on usage errors (malformed queries included); with
//! `--exists`, 0 means some node matched and 1 means none did. `--count`
//! prints the number of matches (a count of 0 is an answer, not an error)
//! and the evaluator never materializes the match set — counting uses
//! per-state tallies, and `--exists` additionally prunes subtrees that
//! provably cannot match and stops at the first that does.
//!
//! `hxq check` decides satisfiability (absolute or against a schema),
//! prints a witness document or a why-empty reason plus the query's
//! required symbols, and optionally decides containment against a second
//! query — all statically, without reading any document. Exit code 0 when
//! satisfiable, 1 when provably empty, 2 on usage errors.

use std::io::Read;
use std::process::ExitCode;
use std::time::Instant;

use hedgex::prelude::*;
use hedgex::ExplainReport;

struct Args {
    path: Option<String>,
    phr: Option<String>,
    subhedge: Option<String>,
    mark: bool,
    keep_attrs: bool,
    explain: bool,
    metrics_json: Option<String>,
    trace: Option<String>,
    repeat: Option<u64>,
    jobs: Option<u64>,
    stream: bool,
    exists: bool,
    count: bool,
    store: Option<String>,
    file: Option<String>,
}

impl Args {
    /// The evaluation mode `--count`/`--exists` select.
    fn mode(&self) -> EvalMode {
        if self.count {
            EvalMode::Count
        } else if self.exists {
            EvalMode::Exists
        } else {
            EvalMode::Locate
        }
    }
}

const HELP: &str = "\
usage: hxq (--path EXPR | --phr EXPR) [OPTIONS] FILE|-

  --path EXPR          classical path expression (root-to-node),
                       e.g. 'article section* figure'
  --phr EXPR           pointed hedge representation, e.g. '[e1 ; name ; e2][…]*'
  --subhedge HRE       additionally require the node's content to match
                       (select(e1, e2))
  --mark               print the document with hx:match=\"1\" on located nodes
  --attrs              map attributes to attr:name children (queryable)
  --explain            print a per-phase pipeline report (automaton sizes,
                       timings, match counts) to stderr
  --metrics-json PATH  write the explain report as JSON to PATH (with
                       --stream: a streaming report — phases, event counts,
                       high-water marks)
  --trace PATH         write the run's span timeline as Chrome trace-event
                       JSON to PATH (open in Perfetto or chrome://tracing;
                       an empty array when obs is compiled out)
  --repeat N           evaluate the query N times reusing one compiled plan
                       and one scratch; print aggregate wall time to stderr
  --jobs N             spread the repeated runs over N worker threads, one
                       scratch per worker; N=1 is exactly the sequential path
  --stream             evaluate during the parse (push-based): the document
                       is never materialized, memory is bounded by its depth;
                       incompatible with --mark/--subhedge/--explain/
                       --repeat/--jobs
  --exists             print nothing; exit 0 if any node matches, 1 if none
                       (with --stream, stops reading at the first match;
                       materialized, prunes provably barren subtrees)
  --count              print the number of matching nodes instead of their
                       addresses; no match set is materialized (with
                       --stream + --path, memory stays O(depth))
  --store STORE        query every document in a persistent store built by
                       'hxq index' instead of a FILE: answers use the
                       store's structural index to skip documents and
                       subtrees that provably cannot match. Locate output
                       is 'NAME:/dewey' lines; --count prints the corpus
                       total; --exists exits 0 if any document matches.
                       Composes with --repeat/--jobs; no FILE argument
  -h, --help           show this help
  FILE                 an XML file, or '-' for stdin

static analysis (no document involved):
  hxq check QUERY [OPTIONS]
    QUERY                  the query as a PHR, e.g. '[e1 ; name ; e2][…]*'
    --subhedge HRE         additionally require the node's content to match
    --schema HRE           decide satisfiability relative to this schema
    --against QUERY2       also decide containment/equivalence vs QUERY2
    --against-subhedge HRE subhedge condition of QUERY2
    --metrics-json PATH    write phase timings and verdicts as JSON to PATH
    --trace PATH           write the span timeline as Chrome trace-event JSON
  exit code: 0 satisfiable, 1 provably empty, 2 usage error

persistent corpora:
  hxq index DIR --out STORE [--attrs]
    parse every *.xml file in DIR (sorted by name) and write them to STORE
    as a versioned, checksummed store (the structural index is rebuilt
    from the documents on every load, so depth costs nothing)
  exit code: 0 ok, 1 i/o or parse error, 2 usage error";

fn usage_error(msg: &str) -> ExitCode {
    eprintln!("hxq: {msg} (try 'hxq --help')");
    ExitCode::from(2)
}

fn parse_args() -> Result<Args, ExitCode> {
    let mut out = Args {
        path: None,
        phr: None,
        subhedge: None,
        mark: false,
        keep_attrs: false,
        explain: false,
        metrics_json: None,
        trace: None,
        repeat: None,
        jobs: None,
        stream: false,
        exists: false,
        count: false,
        store: None,
        file: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .ok_or_else(|| usage_error(&format!("option '{flag}' needs a value")))
        };
        match arg.as_str() {
            "--path" => out.path = Some(value("--path")?),
            "--phr" => out.phr = Some(value("--phr")?),
            "--subhedge" => out.subhedge = Some(value("--subhedge")?),
            "--mark" => out.mark = true,
            "--attrs" => out.keep_attrs = true,
            "--explain" => out.explain = true,
            "--stream" => out.stream = true,
            "--exists" => out.exists = true,
            "--count" => out.count = true,
            "--metrics-json" => out.metrics_json = Some(value("--metrics-json")?),
            "--trace" => out.trace = Some(value("--trace")?),
            "--store" => out.store = Some(value("--store")?),
            "--repeat" => {
                let n = value("--repeat")?;
                match n.parse::<u64>() {
                    Ok(n) if n >= 1 => out.repeat = Some(n),
                    _ => {
                        return Err(usage_error(&format!(
                            "option '--repeat' needs a positive integer, got '{n}'"
                        )))
                    }
                }
            }
            "--jobs" => {
                let n = value("--jobs")?;
                match n.parse::<u64>() {
                    Ok(n) if n >= 1 => out.jobs = Some(n),
                    _ => {
                        return Err(usage_error(&format!(
                            "option '--jobs' needs a positive integer, got '{n}'"
                        )))
                    }
                }
            }
            "--help" | "-h" => {
                println!("{HELP}");
                return Err(ExitCode::SUCCESS);
            }
            _ if arg.starts_with('-') && arg != "-" => {
                return Err(usage_error(&format!("unknown option '{arg}'")));
            }
            _ if out.file.is_none() => out.file = Some(arg),
            _ => return Err(usage_error(&format!("unexpected argument '{arg}'"))),
        }
    }
    if let Some(store) = &out.store {
        if store == "-" || out.file.as_deref() == Some("-") {
            return Err(usage_error(
                "'--store' cannot read from stdin: pass a store file written by 'hxq index'",
            ));
        }
        if let Some(file) = &out.file {
            return Err(usage_error(&format!(
                "'--store' takes no FILE argument (documents come from the store), got '{file}'"
            )));
        }
        for (on, flag) in [
            (out.stream, "--stream"),
            (out.mark, "--mark"),
            (out.subhedge.is_some(), "--subhedge"),
            (out.explain, "--explain"),
            (out.metrics_json.is_some(), "--metrics-json"),
            (out.keep_attrs, "--attrs"),
        ] {
            if on {
                return Err(usage_error(&format!(
                    "'--store' is incompatible with '{flag}'"
                )));
            }
        }
    } else if out.file.is_none() {
        return Err(usage_error("no input file (use '-' for stdin)"));
    }
    if out.path.is_none() && out.phr.is_none() {
        return Err(usage_error("one of --path or --phr is required"));
    }
    if out.path.is_some() && out.phr.is_some() {
        return Err(usage_error("--path and --phr are mutually exclusive"));
    }
    if out.stream {
        // Genuinely unsupported combinations only: --mark and --subhedge
        // need the materialized tree, --explain/--repeat/--jobs drive the
        // materialized plan pipeline. --metrics-json and --trace work
        // streaming (they report the streaming run itself).
        for (on, flag) in [
            (out.mark, "--mark"),
            (out.subhedge.is_some(), "--subhedge"),
            (out.explain, "--explain"),
            (out.repeat.is_some(), "--repeat"),
            (out.jobs.is_some(), "--jobs"),
        ] {
            if on {
                return Err(usage_error(&format!(
                    "'--stream' is incompatible with '{flag}'"
                )));
            }
        }
    }
    if out.exists && out.mark {
        return Err(usage_error("'--exists' is incompatible with '--mark'"));
    }
    if out.count && out.exists {
        return Err(usage_error("'--count' is incompatible with '--exists'"));
    }
    if out.count && out.mark {
        return Err(usage_error("'--count' is incompatible with '--mark'"));
    }
    Ok(out)
}

fn print_report(report: &ExplainReport) {
    eprintln!("explain:");
    for p in &report.phases {
        eprintln!("  {:<18} {:>12.3} ms", p.name, p.wall_ns as f64 / 1e6);
    }
    eprintln!(
        "  components: {} (NHA states {}, DHA states {}, blowup {:.2}x, pruned {})",
        report.components.len(),
        report.nha_states,
        report.dha_states,
        report.blowup_ratio,
        report.pruned_states
    );
    eprintln!(
        "  M states {}, eq-classes {} (elder used {}, younger used {}), N states {}",
        report.m_states,
        report.eq_classes,
        report.elder_classes_used,
        report.younger_classes_used,
        report.n_states
    );
    eprintln!("  nodes {}, located {}", report.nodes, report.located);
}

/// The `--repeat` summary line: aggregate wall time of the evaluation
/// loop (compilation excluded), per-run time, and node throughput.
fn print_repeat_summary(n: u64, wall: std::time::Duration, nodes: u64, jobs: usize) {
    let total_ms = wall.as_secs_f64() * 1e3;
    let nodes_per_s = (nodes * n) as f64 / wall.as_secs_f64().max(1e-9);
    let workers = if jobs > 1 {
        format!(", {jobs} workers")
    } else {
        String::new()
    };
    eprintln!(
        "repeat: {n} runs in {total_ms:.3} ms ({:.3} ms/run, {nodes_per_s:.0} nodes/s{workers})",
        total_ms / n as f64
    );
}

/// Evaluate `run` once, or `--repeat N` times reusing scratches (the warm
/// plan path) — sequentially into one scratch for `jobs <= 1`, otherwise
/// spread over `jobs` workers with one scratch each — and return the last
/// run's answer. Prints the summary line when `--repeat` was given.
fn repeated<T: Send>(
    flat: &FlatHedge,
    repeat: Option<u64>,
    jobs: usize,
    run: impl Fn(&mut EvalScratch) -> T + Sync,
) -> T {
    let n = repeat.unwrap_or(1);
    let t = Instant::now();
    let out = if jobs > 1 {
        hedgex::par::run_scoped(
            jobs,
            n as usize,
            |_| EvalScratch::new(),
            |scratch, _| run(scratch),
        )
        .pop()
        .expect("at least one run")
    } else {
        let mut scratch = EvalScratch::new();
        let mut out = run(&mut scratch);
        for _ in 1..n {
            out = run(&mut scratch);
        }
        out
    };
    if repeat.is_some() {
        print_repeat_summary(n, t.elapsed(), flat.num_nodes() as u64, jobs);
    }
    out
}

/// `--stream`: evaluate push-based, straight off the parser's event
/// stream. The document is never materialized — path queries run the
/// single top-down DFA (and `--exists` aborts the parse at the first
/// match); PHR queries stream the first traversal and retain only the
/// per-node class table. Dewey output is byte-identical to the
/// materialized path.
fn run_stream(src: &str, args: &Args) -> Result<ExitCode, String> {
    use hedgex::stream::StreamStats;
    use hedgex_testkit::Json;

    let cfg = HedgeConfig {
        keep_text: true,
        keep_attrs: args.keep_attrs,
    };
    let mut ab = Alphabet::new();
    let hits_found: bool;
    let mut lines: Vec<String> = Vec::new();
    let mut phases: Vec<(&'static str, u64)> = Vec::new();
    let timed = |phases: &mut Vec<(&'static str, u64)>, name, f: &mut dyn FnMut()| {
        let t = Instant::now();
        f();
        phases.push((name, t.elapsed().as_nanos() as u64));
    };
    let stats: StreamStats;
    let located_count: usize;
    if let Some(p) = &args.path {
        let path = match parse_path(p, &mut ab) {
            Ok(p) => p,
            Err(e) => return Ok(usage_error(&format!("query: {e}"))),
        };
        let mut sink = None;
        timed(&mut phases, "compile", &mut || {
            sink = Some(
                PathStream::new(&path, &ab)
                    .exists(args.exists)
                    .count_only(args.count)
                    .collect_deweys(!args.exists && !args.count),
            )
        });
        let mut sink = sink.expect("compiled");
        let mut outcome = Ok(hedgex::xml::StreamOutcome::Finished);
        timed(&mut phases, "stream", &mut || {
            outcome = stream_xml(src, &mut ab, cfg, &mut sink)
        });
        outcome.map_err(|e| e.to_string())?;
        timed(&mut phases, "finish", &mut || {
            sink.finish();
        });
        stats = sink.stats();
        hits_found = sink.found();
        located_count = sink.count() as usize;
        for d in sink.deweys() {
            let dewey: Vec<String> = d.iter().map(u32::to_string).collect();
            lines.push(format!("/{}", dewey.join("/")));
        }
    } else {
        let phr = match parse_phr(args.phr.as_deref().expect("validated"), &mut ab) {
            Ok(p) => p,
            Err(e) => return Ok(usage_error(&format!("query: {e}"))),
        };
        let mut compiled = None;
        timed(&mut phases, "compile", &mut || {
            compiled = Some(CompiledPhr::compile(&phr))
        });
        let compiled = compiled.expect("compiled");
        let mut sink = PhrStream::new(&compiled);
        let mut outcome = Ok(hedgex::xml::StreamOutcome::Finished);
        timed(&mut phases, "stream", &mut || {
            outcome = stream_xml(src, &mut ab, cfg, &mut sink)
        });
        outcome.map_err(|e| e.to_string())?;
        // One finisher for every mode: count never builds the match set,
        // exists stops the pass-2 scan at the first accepting state.
        let mut answer = EvalOutcome::none(args.mode());
        timed(&mut phases, "finish", &mut || {
            answer = sink.finish_outcome(args.mode())
        });
        stats = sink.stats();
        hits_found = answer.is_match();
        located_count = answer.matched() as usize;
        for &n in sink.located() {
            let dewey: Vec<String> = sink.dewey(n).iter().map(u32::to_string).collect();
            lines.push(format!("/{}", dewey.join("/")));
        }
    }
    if let Some(path) = &args.metrics_json {
        // A streaming run has no automaton-size report — its story is the
        // event stream and the memory high-water marks, plus whatever the
        // obs registry gathered.
        let json = Json::obj([
            ("mode", Json::Str("stream".into())),
            (
                "phases",
                Json::Arr(
                    phases
                        .iter()
                        .map(|&(name, ns)| {
                            Json::obj([
                                ("name", Json::Str(name.into())),
                                ("wall_ns", Json::Num(ns as f64)),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("events", Json::Num(stats.events as f64)),
            ("depth_high_water", Json::Num(stats.depth_high_water as f64)),
            ("live_high_water", Json::Num(stats.live_high_water as f64)),
            ("early_exit", Json::Bool(stats.early_exit)),
            ("located", Json::Num(located_count as f64)),
            ("metrics", hedgex::obs::snapshot()),
        ]);
        std::fs::write(path, format!("{json}\n")).map_err(|e| format!("{path}: {e}"))?;
    }
    if args.exists {
        return Ok(if hits_found {
            ExitCode::SUCCESS
        } else {
            ExitCode::from(1)
        });
    }
    if args.count {
        // The count is the answer: exit 0 even when it is 0.
        println!("{located_count}");
        return Ok(ExitCode::SUCCESS);
    }
    for line in lines {
        println!("{line}");
    }
    Ok(ExitCode::SUCCESS)
}

/// Write the obs span timeline as Chrome trace-event JSON. Works in every
/// mode (an obs-off build writes a valid empty trace), and runs *after*
/// evaluation so the file covers the whole run.
fn write_trace(path: &str) -> Result<(), String> {
    let trace = hedgex::obs::trace_json();
    std::fs::write(path, format!("{trace}\n")).map_err(|e| format!("{path}: {e}"))
}

/// Print/write the explain report wherever the run exits (plain, --exists,
/// --count): stderr for `--explain`, a JSON file for `--metrics-json`.
fn emit_report(args: &Args, report: Option<&ExplainReport>) -> Result<(), String> {
    if let Some(report) = report {
        if args.explain {
            print_report(report);
        }
        if let Some(path) = &args.metrics_json {
            std::fs::write(path, format!("{}\n", report.to_json()))
                .map_err(|e| format!("{path}: {e}"))?;
        }
    }
    Ok(())
}

fn run(args: Args) -> Result<ExitCode, String> {
    let code = run_query(&args)?;
    if let Some(path) = &args.trace {
        write_trace(path)?;
    }
    Ok(code)
}

/// `--store STORE`: answer the query over every document in a persistent
/// store. The plan carries the structural facts it derives from the query,
/// so documents missing a required symbol are rejected by one postings
/// probe each, and the traversal visits only subtrees whose preorder range
/// holds a candidate node (a posting under one of the query's accepting
/// labels).
fn run_store(store_path: &str, args: &Args) -> Result<ExitCode, String> {
    let store = DocumentStore::load(std::path::Path::new(store_path))
        .map_err(|e| format!("{store_path}: {e}"))?;
    // Queries parse against the store's alphabet so symbol ids line up
    // with the postings; genuinely new symbols intern past the end and
    // simply have empty postings everywhere.
    let mut ab = store.alphabet().clone();
    // The same plans `run_query` compiles; the path DFA is tabulated over
    // the store's alphabet.
    let plan = if let Some(p) = &args.phr {
        match parse_phr(p, &mut ab) {
            Ok(phr) => Plan::compile(&phr),
            Err(e) => return Ok(usage_error(&format!("query: {e}"))),
        }
    } else {
        match parse_path(args.path.as_deref().expect("validated"), &mut ab) {
            Ok(path) => Plan::path(&path, &ab),
            Err(e) => return Ok(usage_error(&format!("query: {e}"))),
        }
    };
    let query = hedgex::store::StoreQuery::new(&store, &plan);
    let jobs = args.jobs.unwrap_or(1) as usize;
    let n = args.repeat.unwrap_or(1);
    let mode = args.mode();
    let t = Instant::now();
    let mut located: Vec<Vec<u32>> = Vec::new();
    let mut counts: Vec<u64> = Vec::new();
    let mut exists: Vec<bool> = Vec::new();
    for _ in 0..n {
        match mode {
            EvalMode::Locate => located = query.locate_corpus(jobs),
            EvalMode::Count => counts = query.count_corpus(jobs),
            EvalMode::Exists => exists = query.exists_corpus(jobs),
        }
    }
    if args.repeat.is_some() {
        print_repeat_summary(n, t.elapsed(), store.total_nodes(), jobs);
    }
    match mode {
        EvalMode::Locate => {
            for (doc, hits) in store.docs().iter().zip(&located) {
                for &node in hits {
                    let dewey: Vec<String> =
                        doc.hedge().dewey(node).iter().map(u32::to_string).collect();
                    println!("{}:/{}", doc.name(), dewey.join("/"));
                }
            }
            Ok(ExitCode::SUCCESS)
        }
        EvalMode::Count => {
            // The corpus total is the answer: exit 0 even when it is 0.
            println!("{}", counts.iter().sum::<u64>());
            Ok(ExitCode::SUCCESS)
        }
        EvalMode::Exists => Ok(if exists.iter().any(|&e| e) {
            ExitCode::SUCCESS
        } else {
            ExitCode::from(1)
        }),
    }
}

fn run_query(args: &Args) -> Result<ExitCode, String> {
    if let Some(store_path) = &args.store {
        return run_store(store_path, args);
    }
    let src = match args.file.as_deref() {
        Some("-") => {
            let mut s = String::new();
            std::io::stdin()
                .read_to_string(&mut s)
                .map_err(|e| format!("stdin: {e}"))?;
            s
        }
        Some(path) => std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?,
        None => unreachable!("validated"),
    };

    if args.stream {
        return run_stream(&src, args);
    }

    let mut ab = Alphabet::new();
    let flat = parse_flat(
        &src,
        &mut ab,
        HedgeConfig {
            keep_text: true,
            keep_attrs: args.keep_attrs,
        },
    )
    .map_err(|e| e.to_string())?;

    let subhedge = match args.subhedge.as_deref() {
        Some(e1) => match hedgex::core::parse_hre(e1, &mut ab) {
            Ok(e) => Some(e),
            Err(e) => return Ok(usage_error(&format!("subhedge: {e}"))),
        },
        None => None,
    };

    let want_report = args.explain || args.metrics_json.is_some();
    // The report evaluates the query itself; with --repeat/--jobs the
    // answer still comes from the plan, whose runs are the ones timed.
    let want_plan = !want_report || args.repeat.is_some() || args.jobs.is_some();

    // --phr as written, --path on the §8 DFA whatever the flags. Only the
    // explain report describes PHR automata, so only it embeds a path.
    let (plan, report) = if let Some(p) = &args.phr {
        let phr = match parse_phr(p, &mut ab) {
            Ok(p) => p,
            Err(e) => return Ok(usage_error(&format!("query: {e}"))),
        };
        let report = want_report.then(|| hedgex::explain(&phr, subhedge.as_ref(), &flat));
        (want_plan.then(|| Plan::compile(&phr)), report)
    } else {
        let path = match parse_path(args.path.as_deref().expect("validated"), &mut ab) {
            Ok(p) => p,
            Err(e) => return Ok(usage_error(&format!("query: {e}"))),
        };
        let report =
            want_report.then(|| hedgex::explain_path(&path, &mut ab, subhedge.as_ref(), &flat));
        (want_plan.then(|| Plan::path(&path, &ab)), report)
    };

    let mode = args.mode();
    let jobs = args.jobs.unwrap_or(1) as usize;
    // In count/exists mode with nothing downstream needing node ids, the
    // plan answers without materializing the match set.
    let (hits, outcome): (Vec<u32>, Option<EvalOutcome>) = match &plan {
        None => (
            report.as_ref().map(|r| r.hits.clone()).unwrap_or_default(),
            None,
        ),
        Some(plan) if mode != EvalMode::Locate && subhedge.is_none() => {
            let outcome = repeated(&flat, args.repeat, jobs, |scratch| {
                plan.eval_into(&flat, scratch, mode)
            });
            (Vec::new(), Some(outcome))
        }
        Some(plan) => {
            // select(e1, e2): the envelope's matches whose content the
            // subhedge automaton marks.
            let dha = subhedge
                .as_ref()
                .map(hedgex::core::mark_down::compile_to_dha);
            let hits = repeated(&flat, args.repeat, jobs, |scratch| {
                let hits = plan.locate_into(&flat, scratch);
                match &dha {
                    Some(dha) => {
                        let marks = hedgex::core::mark_run(dha, &flat);
                        hits.iter()
                            .copied()
                            .filter(|&n| marks[n as usize])
                            .collect()
                    }
                    None => hits.to_vec(),
                }
            });
            (hits, None)
        }
    };

    // One (found, counted) pair whatever route produced the answer: the
    // mode-generic plan, a repeated run, a report, or plain locate.
    let (found, counted): (bool, u64) = match outcome {
        Some(o) => (o.is_match(), o.matched()),
        None => (!hits.is_empty(), hits.len() as u64),
    };

    if args.exists {
        // grep -q semantics: no output, exit 0 found / 1 not found.
        // (--explain/--metrics-json still report.)
        emit_report(args, report.as_ref())?;
        return Ok(if found {
            ExitCode::SUCCESS
        } else {
            ExitCode::from(1)
        });
    }

    if args.count {
        // The count is the answer: exit 0 even when it is 0.
        println!("{counted}");
        emit_report(args, report.as_ref())?;
        return Ok(ExitCode::SUCCESS);
    }

    if args.mark {
        let mut marks = vec![false; flat.num_nodes()];
        for &n in &hits {
            marks[n as usize] = true;
        }
        print!("{}", write_xml(&flat, &ab, Some(&marks)));
    } else {
        for &n in &hits {
            let dewey: Vec<String> = flat.dewey(n).iter().map(u32::to_string).collect();
            println!("/{}", dewey.join("/"));
        }
    }

    emit_report(args, report.as_ref())?;
    Ok(ExitCode::SUCCESS)
}

struct CheckArgs {
    query: String,
    subhedge: Option<String>,
    schema: Option<String>,
    against: Option<String>,
    against_subhedge: Option<String>,
    metrics_json: Option<String>,
    trace: Option<String>,
}

fn parse_check_args(mut it: impl Iterator<Item = String>) -> Result<CheckArgs, ExitCode> {
    let mut out = CheckArgs {
        query: String::new(),
        subhedge: None,
        schema: None,
        against: None,
        against_subhedge: None,
        metrics_json: None,
        trace: None,
    };
    let mut have_query = false;
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .ok_or_else(|| usage_error(&format!("option '{flag}' needs a value")))
        };
        match arg.as_str() {
            "--subhedge" => out.subhedge = Some(value("--subhedge")?),
            "--schema" => out.schema = Some(value("--schema")?),
            "--against" => out.against = Some(value("--against")?),
            "--against-subhedge" => out.against_subhedge = Some(value("--against-subhedge")?),
            "--metrics-json" => out.metrics_json = Some(value("--metrics-json")?),
            "--trace" => out.trace = Some(value("--trace")?),
            "--help" | "-h" => {
                println!("{HELP}");
                return Err(ExitCode::SUCCESS);
            }
            _ if arg.starts_with('-') => {
                return Err(usage_error(&format!("unknown option '{arg}'")));
            }
            _ if !have_query => {
                out.query = arg;
                have_query = true;
            }
            _ => return Err(usage_error(&format!("unexpected argument '{arg}'"))),
        }
    }
    if !have_query {
        return Err(usage_error("'check' needs a query (a PHR)"));
    }
    if out.against_subhedge.is_some() && out.against.is_none() {
        return Err(usage_error("'--against-subhedge' needs '--against'"));
    }
    Ok(out)
}

/// `hxq check`: static analysis only — parse, analyze, report. No document
/// is read and no evaluation pass runs; the metrics JSON therefore
/// contains exactly the phases `parse` and `analyze`.
fn run_check(args: CheckArgs) -> ExitCode {
    use hedgex::analyze::AnalyzedQuery;
    use hedgex::hedge::print_hedge;
    use hedgex_testkit::Json;

    let mut ab = Alphabet::new();
    let t_parse = Instant::now();
    let phr = match parse_phr(&args.query, &mut ab) {
        Ok(p) => p,
        Err(e) => return usage_error(&format!("query: {e}")),
    };
    let subhedge = match args.subhedge.as_deref() {
        Some(src) => match hedgex::core::parse_hre(src, &mut ab) {
            Ok(e) => Some(e),
            Err(e) => return usage_error(&format!("subhedge: {e}")),
        },
        None => None,
    };
    let schema = match args.schema.as_deref() {
        Some(src) => match hedgex::core::parse_hre(src, &mut ab) {
            Ok(e) => Some(e),
            Err(e) => return usage_error(&format!("schema: {e}")),
        },
        None => None,
    };
    let against = match args.against.as_deref() {
        Some(src) => match parse_phr(src, &mut ab) {
            Ok(p) => Some(p),
            Err(e) => return usage_error(&format!("against: {e}")),
        },
        None => None,
    };
    let against_subhedge = match args.against_subhedge.as_deref() {
        Some(src) => match hedgex::core::parse_hre(src, &mut ab) {
            Ok(e) => Some(e),
            Err(e) => return usage_error(&format!("against-subhedge: {e}")),
        },
        None => None,
    };
    let parse_ns = t_parse.elapsed().as_nanos() as u64;

    let t_analyze = Instant::now();
    let schema_dha = schema.as_ref().map(hedgex::core::mark_down::compile_to_dha);
    let q = AnalyzedQuery::new(&phr, subhedge.as_ref());
    let report = q.analyze(schema_dha.as_ref());
    let containment = against.as_ref().map(|p2| {
        let q2 = AnalyzedQuery::new(p2, against_subhedge.as_ref());
        (q.contained_in(&q2), q2.contained_in(&q))
    });
    let analyze_ns = t_analyze.elapsed().as_nanos() as u64;

    let sat = &report.satisfiability;
    if sat.satisfiable {
        let scope = if schema.is_some() {
            " (within the schema)"
        } else {
            ""
        };
        println!("check: satisfiable{scope}");
        if let Some(w) = &sat.witness {
            println!("witness: {}", print_hedge(w, &ab));
        }
        if !report.required.is_empty() {
            let names: Vec<&str> = report.required.iter().map(|&s| ab.sym_name(s)).collect();
            println!("required symbols: {}", names.join(" "));
        }
    } else {
        let why = sat
            .why_empty
            .map(|w| w.to_string())
            .unwrap_or_else(|| "unsatisfiable".to_string());
        println!("check: empty ({why})");
    }
    if let Some((fwd, back)) = &containment {
        match (fwd.contained, back.contained) {
            (true, true) => println!("containment: equivalent to the --against query"),
            (true, false) => println!("containment: strictly contained in the --against query"),
            (false, true) => println!("containment: strictly contains the --against query"),
            (false, false) => println!("containment: incomparable with the --against query"),
        }
        for (cex, dir) in [(fwd, "query \\ against"), (back, "against \\ query")] {
            if let Some(h) = &cex.counterexample {
                println!("counterexample ({dir}): {}", print_hedge(h, &ab));
            }
        }
    }

    if let Some(path) = &args.metrics_json {
        let phases = Json::Arr(vec![
            Json::obj([
                ("name", Json::Str("parse".into())),
                ("wall_ns", Json::Num(parse_ns as f64)),
            ]),
            Json::obj([
                ("name", Json::Str("analyze".into())),
                ("wall_ns", Json::Num(analyze_ns as f64)),
            ]),
        ]);
        let required = Json::Arr(
            report
                .required
                .iter()
                .map(|&s| Json::Str(ab.sym_name(s).to_string()))
                .collect(),
        );
        let mut fields = vec![
            ("phases", phases),
            ("satisfiable", Json::Bool(sat.satisfiable)),
            (
                "why_empty",
                match sat.why_empty {
                    Some(w) => Json::Str(w.to_string()),
                    None => Json::Null,
                },
            ),
            ("required", required),
        ];
        if let Some((fwd, back)) = &containment {
            fields.push(("contained_in_against", Json::Bool(fwd.contained)));
            fields.push(("contains_against", Json::Bool(back.contained)));
        }
        let json = Json::obj(fields);
        if let Err(e) = std::fs::write(path, format!("{json}\n")) {
            eprintln!("hxq: {path}: {e}");
            return ExitCode::FAILURE;
        }
    }

    if let Some(path) = &args.trace {
        if let Err(e) = write_trace(path) {
            eprintln!("hxq: {e}");
            return ExitCode::FAILURE;
        }
    }

    if sat.satisfiable {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

struct IndexArgs {
    dir: String,
    out: String,
    keep_attrs: bool,
}

fn parse_index_args(mut it: impl Iterator<Item = String>) -> Result<IndexArgs, ExitCode> {
    let mut dir: Option<String> = None;
    let mut out: Option<String> = None;
    let mut keep_attrs = false;
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .ok_or_else(|| usage_error(&format!("option '{flag}' needs a value")))
        };
        match arg.as_str() {
            "--out" => out = Some(value("--out")?),
            "--attrs" => keep_attrs = true,
            "--help" | "-h" => {
                println!("{HELP}");
                return Err(ExitCode::SUCCESS);
            }
            _ if arg.starts_with('-') => {
                return Err(usage_error(&format!("unknown option '{arg}'")));
            }
            _ if dir.is_none() => dir = Some(arg),
            _ => return Err(usage_error(&format!("unexpected argument '{arg}'"))),
        }
    }
    let Some(dir) = dir else {
        return Err(usage_error("'index' needs a directory of *.xml files"));
    };
    let Some(out) = out else {
        return Err(usage_error("'index' needs '--out STORE'"));
    };
    Ok(IndexArgs {
        dir,
        out,
        keep_attrs,
    })
}

/// `hxq index DIR --out STORE`: the parse-once half of the store workflow.
/// Every `*.xml` under DIR (sorted by name, so stores are reproducible) is
/// parsed against one shared alphabet, indexed, and written out.
fn run_index(args: IndexArgs) -> Result<ExitCode, String> {
    let entries = std::fs::read_dir(&args.dir).map_err(|e| format!("{}: {e}", args.dir))?;
    let mut files: Vec<(String, std::path::PathBuf)> = Vec::new();
    for entry in entries {
        let entry = entry.map_err(|e| format!("{}: {e}", args.dir))?;
        let path = entry.path();
        if path.extension().and_then(|e| e.to_str()) == Some("xml") {
            let name = entry.file_name().to_string_lossy().into_owned();
            files.push((name, path));
        }
    }
    if files.is_empty() {
        return Err(format!("{}: no *.xml files to index", args.dir));
    }
    files.sort();
    let cfg = HedgeConfig {
        keep_text: true,
        keep_attrs: args.keep_attrs,
    };
    let mut ab = Alphabet::new();
    let mut docs: Vec<(String, FlatHedge)> = Vec::with_capacity(files.len());
    for (name, path) in files {
        let src = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let flat = parse_flat(&src, &mut ab, cfg).map_err(|e| format!("{name}: {e}"))?;
        docs.push((name, flat));
    }
    let store = DocumentStore::build(ab, docs);
    store
        .save(std::path::Path::new(&args.out))
        .map_err(|e| format!("{}: {e}", args.out))?;
    println!(
        "indexed {} documents ({} nodes) into {}",
        store.len(),
        store.total_nodes(),
        args.out
    );
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let mut argv = std::env::args().skip(1).peekable();
    if argv.peek().map(String::as_str) == Some("check") {
        argv.next();
        return match parse_check_args(argv) {
            Ok(a) => run_check(a),
            Err(code) => code,
        };
    }
    if argv.peek().map(String::as_str) == Some("index") {
        argv.next();
        return match parse_index_args(argv) {
            Ok(a) => match run_index(a) {
                Ok(code) => code,
                Err(msg) => {
                    eprintln!("hxq: {msg}");
                    ExitCode::FAILURE
                }
            },
            Err(code) => code,
        };
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(code) => return code,
    };
    match run(args) {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("hxq: {msg}");
            ExitCode::FAILURE
        }
    }
}
