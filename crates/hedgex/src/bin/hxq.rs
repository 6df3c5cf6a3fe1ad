//! `hxq` — query XML documents with extended path expressions.
//!
//! Every query — a file, stdin (`-`) or `--store`, in any mode — runs
//! through [`hedgex::run()`], which picks the route from the request: a
//! `--path` query over a file or stdin streams unless `--mark`,
//! `--subhedge` or `--repeat` needs the document's arena, and a `--phr`
//! query always runs on the arena. `--stream` is accepted and ignored.
//! This binary parses the arguments, checks them against one
//! incompatibility table, and prints the run's side channels (`--repeat`
//! summary, `--explain`, `--metrics-json`, `--trace`). `hxq check`
//! analyzes a query statically and `hxq index` builds a store; `hxq
//! --help` lists every flag.
//!
//! Matches go to stdout: one Dewey address per line (`NAME:/…` over a
//! store), the count with `--count`, nothing with `--exists`, or with
//! `--mark` the document with `hx:match="1"` on matches. Diagnostics and
//! reports go to stderr. Exit code 0 on success (a closed stdout included:
//! `hxq … | head` stops quietly), 1 on runtime errors (malformed or
//! truncated input included), 2 on usage errors (malformed queries
//! included); with `--exists`, 0 means some node matched and 1 means none
//! did. `hxq check` exits 0 when satisfiable, 1 when provably empty, 2 on
//! usage errors.

use std::io::{BufWriter, ErrorKind};
use std::process::ExitCode;
use std::time::Instant;

use hedgex::prelude::*;
use hedgex::run::{Query, Source};
use hedgex::xml::{parse_flat_read, ReadError};
use hedgex::{Request, RunError};
use hedgex_testkit::Json;

#[derive(Default)]
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
    exists: bool,
    count: bool,
    store: Option<String>,
    file: Option<String>,
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
  --explain            print a report of this run to stderr: per-layer
                       timings, the sizes of the automaton that answered,
                       match counts (and, when the run streamed, event
                       counts and high-water marks); works with every
                       source and mode
  --metrics-json PATH  write the same report as JSON to PATH
  --trace PATH         write the run's span timeline as Chrome trace-event
                       JSON to PATH (open in Perfetto or chrome://tracing;
                       an empty array when obs is compiled out)
  --repeat N           evaluate the query N times reusing one compiled plan
                       and one scratch; print aggregate wall time to stderr
  --jobs N             spread the repeated runs over N worker threads, one
                       scratch per worker; N=1 is exactly the sequential path
  --stream             accepted and ignored: the query picks the route. A
                       --path query over FILE or stdin always evaluates
                       during the parse, keeping only the open ancestors'
                       DFA states, O(depth), and builds no tree, unless
                       --mark/--subhedge/--repeat needs the document's
                       arena; a --phr query always builds the arena (a PHR
                       match depends on younger siblings). FILE and stdin
                       are read in chunks through one 64 KB window, never
                       whole
  --exists             print nothing; exit 0 if any node matches, 1 if none
                       (a streamed --path query stops reading and parsing
                       at the first match, so input malformed after it is
                       not an error; otherwise, prunes provably barren
                       subtrees)
  --count              print the number of matching nodes instead of their
                       addresses; no match set is materialized (a streamed
                       --path query keeps O(depth) memory plus the window)
  --store STORE        query every document in a persistent store built by
                       'hxq index' instead of a FILE: answers use the
                       store's structural index to skip documents and
                       subtrees that provably cannot match. Locate output
                       is 'NAME:/dewey' lines; --count prints the corpus
                       total; --exists exits 0 if any document matches.
                       Composes with --repeat/--jobs and the report flags;
                       no FILE argument
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

/// A value-taking option's value, pulled on demand.
type Value<'a> = &'a mut dyn FnMut() -> Result<String, ExitCode>;

/// Walk one command's arguments: `--help` prints the help (exit 0),
/// `option(name, value)` takes each option and says whether it knows it,
/// and the rest (`-` included) are positional, at most `max` of them.
fn walk_args(
    mut it: impl Iterator<Item = String>,
    max: usize,
    mut option: impl FnMut(&str, Value<'_>) -> Result<bool, ExitCode>,
) -> Result<Vec<String>, ExitCode> {
    let mut positional = Vec::new();
    while let Some(arg) = it.next() {
        if arg == "--help" || arg == "-h" {
            println!("{HELP}");
            return Err(ExitCode::SUCCESS);
        }
        if arg.starts_with('-') && arg != "-" {
            let needs = || usage_error(&format!("option '{arg}' needs a value"));
            if !option(&arg, &mut || it.next().ok_or_else(needs))? {
                return Err(usage_error(&format!("unknown option '{arg}'")));
            }
        } else if positional.len() < max {
            positional.push(arg);
        } else {
            return Err(usage_error(&format!("unexpected argument '{arg}'")));
        }
    }
    Ok(positional)
}

fn positive(flag: &str, n: String) -> Result<Option<u64>, ExitCode> {
    match n.parse::<u64>() {
        Ok(n) if n >= 1 => Ok(Some(n)),
        _ => Err(usage_error(&format!(
            "option '{flag}' needs a positive integer, got '{n}'"
        ))),
    }
}

fn parse_args(argv: impl Iterator<Item = String>) -> Result<Args, ExitCode> {
    let mut a = Args::default();
    let file = walk_args(argv, 1, |flag, value| {
        match flag {
            "--path" => a.path = Some(value()?),
            "--phr" => a.phr = Some(value()?),
            "--subhedge" => a.subhedge = Some(value()?),
            "--metrics-json" => a.metrics_json = Some(value()?),
            "--trace" => a.trace = Some(value()?),
            "--store" => a.store = Some(value()?),
            "--repeat" => a.repeat = positive(flag, value()?)?,
            "--jobs" => a.jobs = positive(flag, value()?)?,
            "--mark" => a.mark = true,
            "--attrs" => a.keep_attrs = true,
            "--explain" => a.explain = true,
            "--stream" => {}
            "--exists" => a.exists = true,
            "--count" => a.count = true,
            _ => return Ok(false),
        }
        Ok(true)
    })?;
    a.file = file.into_iter().next();
    if let Some(store) = &a.store {
        if store == "-" || a.file.as_deref() == Some("-") {
            return Err(usage_error(
                "'--store' cannot read from stdin: pass a store file written by 'hxq index'",
            ));
        }
        if let Some(file) = &a.file {
            return Err(usage_error(&format!(
                "'--store' takes no FILE argument (documents come from the store), got '{file}'"
            )));
        }
    } else if a.file.is_none() {
        return Err(usage_error("no input file (use '-' for stdin)"));
    }
    if a.path.is_none() && a.phr.is_none() {
        return Err(usage_error("one of --path or --phr is required"));
    }
    if a.path.is_some() && a.phr.is_some() {
        return Err(usage_error("--path and --phr are mutually exclusive"));
    }
    // The one incompatibility table. A store holds no text to mark, match
    // a subhedge against or re-read with attributes. The report flags go
    // with every source.
    let store = a.store.is_some();
    for (x, x_flag, y, y_flag) in [
        (store, "--store", a.mark, "--mark"),
        (store, "--store", a.subhedge.is_some(), "--subhedge"),
        (store, "--store", a.keep_attrs, "--attrs"),
        (a.exists, "--exists", a.mark, "--mark"),
        (a.count, "--count", a.exists, "--exists"),
        (a.count, "--count", a.mark, "--mark"),
    ] {
        if x && y {
            return Err(usage_error(&format!(
                "'{x_flag}' is incompatible with '{y_flag}'"
            )));
        }
    }
    Ok(a)
}

/// Run the query through the library pipeline and print its side
/// channels: the `--repeat` summary and the `--explain` report on stderr,
/// the `--metrics-json` report and the `--trace` timeline to their files.
/// Answers go through one buffered writer; a closed stdout (`hxq … | head`)
/// ends the run quietly with exit 0.
fn run(args: Args) -> Result<ExitCode, String> {
    let source = match (&args.store, args.file.as_deref()) {
        (Some(store), _) => Source::Store(store.clone()),
        (None, Some("-")) => Source::Stdin,
        (None, Some(file)) => Source::File(file.to_string()),
        (None, None) => unreachable!("validated"),
    };
    let query = match (&args.path, &args.phr) {
        (Some(path), _) => Query::Path(path.clone()),
        (None, Some(phr)) => Query::Phr(phr.clone()),
        (None, None) => unreachable!("validated"),
    };
    let req = Request {
        source,
        query,
        subhedge: args.subhedge.clone(),
        mode: match (args.count, args.exists) {
            (true, _) => EvalMode::Count,
            (_, true) => EvalMode::Exists,
            _ => EvalMode::Locate,
        },
        mark: args.mark,
        config: HedgeConfig {
            keep_text: true,
            keep_attrs: args.keep_attrs,
        },
        repeat: args.repeat,
        jobs: args.jobs.unwrap_or(1) as usize,
        report: args.explain || args.metrics_json.is_some(),
    };
    let mut out = BufWriter::new(std::io::stdout().lock());
    let ran = match hedgex::run(&req, &mut out) {
        Ok(ran) => ran,
        Err(RunError::Query(msg)) => return Ok(usage_error(&msg)),
        Err(RunError::Output(e)) if e.kind() == ErrorKind::BrokenPipe => {
            return Ok(ExitCode::SUCCESS)
        }
        Err(e) => return Err(e.to_string()),
    };
    if let Some(summary) = ran.repeat {
        eprintln!("{summary}");
    }
    if let Some(report) = &ran.report {
        if args.explain {
            eprint!("{report}");
        }
        if let Some(path) = &args.metrics_json {
            std::fs::write(path, format!("{}\n", report.to_json()))
                .map_err(|e| format!("{path}: {e}"))?;
        }
    }
    if let Some(path) = &args.trace {
        write_trace(path)?;
    }
    // --exists answers with the exit code alone (grep -q); every other
    // mode's answer is on stdout, and a count of 0 is an answer too.
    Ok(if args.exists && !ran.outcome.is_match() {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    })
}

/// Write the obs span timeline as Chrome trace-event JSON. Works in every
/// mode (an obs-off build writes a valid empty trace), and runs *after*
/// evaluation so the file covers the whole run.
fn write_trace(path: &str) -> Result<(), String> {
    let trace = hedgex::obs::trace_json();
    std::fs::write(path, format!("{trace}\n")).map_err(|e| format!("{path}: {e}"))
}

#[derive(Default)]
struct CheckArgs {
    query: String,
    subhedge: Option<String>,
    schema: Option<String>,
    against: Option<String>,
    against_subhedge: Option<String>,
    metrics_json: Option<String>,
    trace: Option<String>,
}

fn parse_check_args(argv: impl Iterator<Item = String>) -> Result<CheckArgs, ExitCode> {
    let mut a = CheckArgs::default();
    let query = walk_args(argv, 1, |flag, value| {
        match flag {
            "--subhedge" => a.subhedge = Some(value()?),
            "--schema" => a.schema = Some(value()?),
            "--against" => a.against = Some(value()?),
            "--against-subhedge" => a.against_subhedge = Some(value()?),
            "--metrics-json" => a.metrics_json = Some(value()?),
            "--trace" => a.trace = Some(value()?),
            _ => return Ok(false),
        }
        Ok(true)
    })?;
    let Some(query) = query.into_iter().next() else {
        return Err(usage_error("'check' needs a query (a PHR)"));
    };
    if a.against_subhedge.is_some() && a.against.is_none() {
        return Err(usage_error("'--against-subhedge' needs '--against'"));
    }
    a.query = query;
    Ok(a)
}

/// Parse optional query text with `parse`; a bad one is a usage error
/// naming `what`.
fn parse_opt<T, E: std::fmt::Display>(
    src: Option<&str>,
    what: &str,
    parse: impl FnOnce(&str) -> Result<T, E>,
) -> Result<Option<T>, ExitCode> {
    src.map(parse)
        .transpose()
        .map_err(|e| usage_error(&format!("{what}: {e}")))
}

/// `hxq check`: static analysis only — parse, analyze, report. No document
/// is read and no evaluation pass runs; the metrics JSON therefore
/// contains exactly the phases `parse` and `analyze`.
fn run_check(args: CheckArgs) -> Result<ExitCode, String> {
    use hedgex::analyze::AnalyzedQuery;
    use hedgex::hedge::print_hedge;

    let mut ab = Alphabet::new();
    let t_parse = Instant::now();
    let parsed = (|| {
        let phr = parse_opt(Some(&args.query), "query", |s| parse_phr(s, &mut ab))?;
        let subhedge = parse_opt(args.subhedge.as_deref(), "subhedge", |s| {
            parse_hre(s, &mut ab)
        })?;
        let schema = parse_opt(args.schema.as_deref(), "schema", |s| parse_hre(s, &mut ab))?;
        let against = parse_opt(args.against.as_deref(), "against", |s| {
            parse_phr(s, &mut ab)
        })?;
        let against_subhedge = args.against_subhedge.as_deref();
        let against_subhedge = parse_opt(against_subhedge, "against-subhedge", |s| {
            parse_hre(s, &mut ab)
        })?;
        Ok((
            phr.expect("given"),
            subhedge,
            schema,
            against,
            against_subhedge,
        ))
    })();
    let (phr, subhedge, schema, against, against_subhedge) = match parsed {
        Ok(parsed) => parsed,
        Err(code) => return Ok(code),
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
            .map_or("unsatisfiable".to_string(), |w| w.to_string());
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
        let phase = |name: &str, ns: u64| {
            Json::obj([
                ("name", Json::Str(name.into())),
                ("wall_ns", Json::Num(ns as f64)),
            ])
        };
        let phases = vec![phase("parse", parse_ns), phase("analyze", analyze_ns)];
        let required = report.required.iter();
        let required = required.map(|&s| Json::Str(ab.sym_name(s).to_string()));
        let why_empty = sat
            .why_empty
            .map_or(Json::Null, |w| Json::Str(w.to_string()));
        let mut fields = vec![
            ("phases", Json::Arr(phases)),
            ("satisfiable", Json::Bool(sat.satisfiable)),
            ("why_empty", why_empty),
            ("required", Json::Arr(required.collect())),
        ];
        if let Some((fwd, back)) = &containment {
            fields.push(("contained_in_against", Json::Bool(fwd.contained)));
            fields.push(("contains_against", Json::Bool(back.contained)));
        }
        let json = Json::obj(fields);
        std::fs::write(path, format!("{json}\n")).map_err(|e| format!("{path}: {e}"))?;
    }
    if let Some(path) = &args.trace {
        write_trace(path)?;
    }
    Ok(if sat.satisfiable {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

#[derive(Default)]
struct IndexArgs {
    dir: String,
    out: String,
    keep_attrs: bool,
}

fn parse_index_args(argv: impl Iterator<Item = String>) -> Result<IndexArgs, ExitCode> {
    let mut a = IndexArgs::default();
    let mut out = None;
    let dir = walk_args(argv, 1, |flag, value| {
        match flag {
            "--out" => out = Some(value()?),
            "--attrs" => a.keep_attrs = true,
            _ => return Ok(false),
        }
        Ok(true)
    })?;
    let Some(dir) = dir.into_iter().next() else {
        return Err(usage_error("'index' needs a directory of *.xml files"));
    };
    let Some(out) = out else {
        return Err(usage_error("'index' needs '--out STORE'"));
    };
    (a.dir, a.out) = (dir, out);
    Ok(a)
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
        let file = std::fs::File::open(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let flat = parse_flat_read(file, &mut ab, cfg).map_err(|e| match e {
            ReadError::Io(e) => format!("{}: {e}", path.display()),
            ReadError::Xml(e) => format!("{name}: {e}"),
        })?;
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
    let ran = match argv.peek().map(String::as_str) {
        Some("check") => parse_check_args(argv.skip(1)).map(run_check),
        Some("index") => parse_index_args(argv.skip(1)).map(run_index),
        _ => parse_args(argv).map(run),
    };
    match ran {
        Ok(Ok(code)) | Err(code) => code,
        Ok(Err(msg)) => {
            eprintln!("hxq: {msg}");
            ExitCode::FAILURE
        }
    }
}
