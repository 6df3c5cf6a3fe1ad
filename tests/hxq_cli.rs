//! End-to-end tests for the `hxq` binary: exit-code contract, `--explain`
//! and `--metrics-json` output, and agreement between the CLI's match set
//! and the library pipeline.

use std::io::{ErrorKind, Write};
use std::path::PathBuf;
use std::process::{Command, Output, Stdio};

use hedgex::prelude::*;
use hedgex_bench::{doc_workload, docbook_universal};
use hedgex_testkit::Json;

fn hxq(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_hxq"))
        .args(args)
        .output()
        .expect("hxq runs")
}

/// Run hxq with `input` piped to stdin (for the `-` file argument). A run
/// that has its answer before the end of its input (a streamed `--exists`)
/// stops reading and exits, so a closed pipe ends the write.
fn hxq_stdin(args: &[&str], input: impl AsRef<[u8]>) -> Output {
    let mut child = Command::new(env!("CARGO_BIN_EXE_hxq"))
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("hxq spawns");
    let written = child
        .stdin
        .take()
        .expect("stdin is piped")
        .write_all(input.as_ref());
    if let Err(e) = written {
        assert_eq!(e.kind(), ErrorKind::BrokenPipe, "write to hxq stdin: {e}");
    }
    child.wait_with_output().expect("hxq runs")
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hxq-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir.join(name)
}

#[test]
fn usage_errors_exit_2_with_one_line_diagnostics() {
    for (args, needle) in [
        (&["--bogus", "x.xml"][..], "unknown option '--bogus'"),
        (&["--path"][..], "needs a value"),
        (&["x.xml"][..], "one of --path or --phr"),
        (
            &["--path", "a", "--phr", "b", "x.xml"][..],
            "mutually exclusive",
        ),
        (&["--path", "a"][..], "no input file"),
        (
            &["--path", "a", "--repeat", "0", "x.xml"][..],
            "positive integer",
        ),
        (
            &["--path", "a", "--repeat", "three", "x.xml"][..],
            "positive integer",
        ),
        (
            &["--path", "a", "--jobs", "0", "x.xml"][..],
            "positive integer",
        ),
        (
            &["--path", "a", "--jobs", "many", "x.xml"][..],
            "positive integer",
        ),
        (
            &["--path", "a", "--exists", "--mark", "x.xml"][..],
            "'--exists' is incompatible with '--mark'",
        ),
        (
            &["--path", "a", "--count", "--exists", "x.xml"][..],
            "'--count' is incompatible with '--exists'",
        ),
        (
            &["--path", "a", "--count", "--mark", "x.xml"][..],
            "'--count' is incompatible with '--mark'",
        ),
    ] {
        let out = hxq(args);
        assert_eq!(out.status.code(), Some(2), "args {args:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(err.lines().count(), 1, "diagnostic must be one line: {err}");
        assert!(err.contains(needle), "{err:?} should mention {needle:?}");
        assert!(out.stdout.is_empty());
    }
}

#[test]
fn help_exits_0_and_documents_the_flags() {
    let out = hxq(&["--help"]);
    assert_eq!(out.status.code(), Some(0));
    let text = String::from_utf8_lossy(&out.stdout);
    for flag in [
        "--path",
        "--phr",
        "--subhedge",
        "--mark",
        "--explain",
        "--metrics-json",
        "--trace",
        "--repeat",
        "--jobs",
        "--stream",
        "--exists",
        "--count",
    ] {
        assert!(text.contains(flag), "help should document {flag}");
    }
}

#[test]
fn malformed_queries_are_usage_errors_in_every_mode() {
    // The exit-code contract pins 2 for bad queries whether the document
    // was readable or not: a query error is the user's, not the input's.
    // Every route parses the query before the document, so a malformed
    // document changes nothing, whether the query streams or (with
    // `--repeat`, or as a PHR) runs on the arena.
    let xml = scratch("bad-query.xml");
    std::fs::write(&xml, "<a><b/></a>").unwrap();
    let bad_xml = scratch("bad-query-bad-doc.xml");
    std::fs::write(&bad_xml, "<a><b/>").unwrap();
    for doc in [&xml, &bad_xml] {
        for extra in [
            &[][..],
            &["--stream"][..],
            &["--exists"][..],
            &["--count"][..],
            &["--repeat", "1"][..],
        ] {
            for query in [&["--path", "a (("][..], &["--phr", "[ε ; a"][..]] {
                let out = hxq(&[query, extra, &[doc.to_str().unwrap()]].concat());
                assert_eq!(
                    out.status.code(),
                    Some(2),
                    "bad query must exit 2 ({query:?} {extra:?} {doc:?})"
                );
                assert!(out.stdout.is_empty());
                let err = String::from_utf8_lossy(&out.stderr);
                assert_eq!(err.lines().count(), 1, "one-line diagnostic: {err}");
                assert!(err.contains("query:"), "{err:?} should name the query");
            }
        }
    }
    // A bad subhedge too.
    let out = hxq(&["--path", "a b", "--subhedge", "((", xml.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("subhedge:"));
    std::fs::remove_file(&xml).ok();
    std::fs::remove_file(&bad_xml).ok();
}

#[test]
fn trace_json_on_docbook_is_valid_chrome_trace() {
    // The acceptance scenario: a DocBook run with --trace must produce a
    // Chrome trace-event array (ph "X" complete events, or "B"/"E" pairs)
    // with the ts/dur/tid/pid fields the viewers require.
    let w = doc_workload(300, 5);
    let xml = scratch("trace-doc.xml");
    std::fs::write(&xml, write_xml(&w.doc, &w.ab, None)).unwrap();
    let trace_path = scratch("trace.json");

    let out = hxq(&[
        "--path",
        "article section* figure",
        "--trace",
        trace_path.to_str().unwrap(),
        xml.to_str().unwrap(),
    ]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    // Matches still print — tracing never changes the answer.
    assert!(String::from_utf8_lossy(&out.stdout)
        .lines()
        .any(|l| l.starts_with('/')));

    let text = std::fs::read_to_string(&trace_path).unwrap();
    let trace = Json::parse(&text).expect("trace JSON parses");
    let events = trace.as_arr().expect("trace is a JSON array");
    if hedgex::obs::is_enabled() {
        assert!(!events.is_empty(), "an instrumented run records spans");
    }
    for e in events {
        let ph = e.get("ph").and_then(Json::as_str).expect("ph present");
        assert!(
            matches!(ph, "X" | "B" | "E"),
            "unexpected trace phase {ph:?}"
        );
        assert!(e.get("name").and_then(Json::as_str).is_some());
        assert!(e.get("ts").and_then(Json::as_f64).is_some(), "ts present");
        assert!(e.get("pid").and_then(Json::as_u64).is_some());
        assert!(e.get("tid").and_then(Json::as_u64).is_some());
        if ph == "X" {
            assert!(e.get("dur").and_then(Json::as_f64).is_some());
        }
    }

    // The same run streaming: --trace works there too.
    let out = hxq(&[
        "--path",
        "article section* figure",
        "--stream",
        "--trace",
        trace_path.to_str().unwrap(),
        xml.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(0));
    let text = std::fs::read_to_string(&trace_path).unwrap();
    Json::parse(&text)
        .expect("streaming trace parses")
        .as_arr()
        .expect("streaming trace is an array");

    std::fs::remove_file(&xml).ok();
    std::fs::remove_file(&trace_path).ok();
}

#[test]
fn stream_metrics_json_reports_the_streaming_run() {
    // --stream + --metrics-json reports the run that answered: a path
    // query streams, with its layers, event counts and high-water marks; a
    // PHR runs on the document's arena whatever the flag says.
    let w = doc_workload(200, 3);
    let xml = scratch("stream-metrics.xml");
    std::fs::write(&xml, write_xml(&w.doc, &w.ab, None)).unwrap();
    let json_path = scratch("stream-metrics.json");

    for query in [
        &["--path", "article section* figure"][..],
        &["--phr", "[\u{3b5} ; figure ; \u{3b5}]"][..],
    ] {
        let streams = query[0] == "--path";
        let out = hxq(&[
            query,
            &[
                "--stream",
                "--metrics-json",
                json_path.to_str().unwrap(),
                xml.to_str().unwrap(),
            ],
        ]
        .concat());
        assert_eq!(
            out.status.code(),
            Some(0),
            "stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let printed = String::from_utf8_lossy(&out.stdout)
            .lines()
            .filter(|l| l.starts_with('/'))
            .count();

        let text = std::fs::read_to_string(&json_path).unwrap();
        let report = Json::parse(&text).expect("streaming metrics JSON parses");
        let phases = report.get("phases").and_then(Json::as_arr).unwrap();
        let names: Vec<&str> = phases
            .iter()
            .filter_map(|p| p.get("name").and_then(Json::as_str))
            .collect();
        assert_eq!(
            report.get("located").and_then(Json::as_u64),
            Some(printed as u64),
            "{query:?}"
        );
        assert!(report.get("metrics").is_some());
        if !streams {
            assert_eq!(report.get("source").and_then(Json::as_str), Some("file"));
            assert_eq!(
                names,
                [
                    "hedgex.query_parse",
                    "hedgex.parse",
                    "hedgex.compile",
                    "hedgex.eval",
                    "hedgex.output",
                    "hedgex.report"
                ],
                "{query:?}"
            );
            assert_eq!(report.get("stream"), Some(&Json::Null), "{query:?}");
            continue;
        }
        assert_eq!(report.get("source").and_then(Json::as_str), Some("stream"));
        assert_eq!(
            names,
            [
                "hedgex.query_parse",
                "hedgex.compile",
                "hedgex.stream",
                "hedgex.finish",
                "hedgex.output",
                "hedgex.report"
            ],
            "{query:?}"
        );
        let stream = report.get("stream").expect("a streaming run's stats");
        assert!(stream.get("events").and_then(Json::as_u64).unwrap() > 0);
        assert!(
            stream
                .get("depth_high_water")
                .and_then(Json::as_u64)
                .unwrap()
                >= 1
        );
        assert_eq!(stream.get("early_exit"), Some(&Json::Bool(false)));
    }

    std::fs::remove_file(&xml).ok();
    std::fs::remove_file(&json_path).ok();
}

#[test]
fn unreadable_file_exits_1() {
    let out = hxq(&["--path", "a", "/nonexistent/really-not-here.xml"]);
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(err.lines().count(), 1, "diagnostic must be one line: {err}");
    assert!(err.contains("really-not-here.xml"));
}

#[test]
fn explain_metrics_json_on_docbook_is_valid_and_consistent() {
    // The acceptance scenario: a generated DocBook document, the paper's
    // standard ancestor query, --explain + --metrics-json.
    let w = doc_workload(300, 5);
    let xml = scratch("docbook.xml");
    std::fs::write(&xml, write_xml(&w.doc, &w.ab, None)).unwrap();
    let json_path = scratch("metrics.json");

    let out = hxq(&[
        "--path",
        "article section* figure",
        "--explain",
        "--metrics-json",
        json_path.to_str().unwrap(),
        xml.to_str().unwrap(),
    ]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    // stdout: one Dewey address per located node.
    let stdout = String::from_utf8_lossy(&out.stdout);
    let printed = stdout.lines().filter(|l| l.starts_with('/')).count();
    assert!(printed > 0, "workload should contain figures");

    // stderr: the human-readable report.
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("explain:"));
    assert!(stderr.contains("compile"));
    assert!(stderr.contains("located"));

    // The JSON file parses; a path run describes the DFA that answered.
    let text = std::fs::read_to_string(&json_path).unwrap();
    let report = Json::parse(&text).expect("metrics JSON parses");
    let plan = report.get("plan").expect("plan sizes");
    assert_eq!(plan.get("backend").and_then(Json::as_str), Some("path"));
    assert!(plan.get("dfa_states").and_then(Json::as_u64).unwrap() > 0);

    // Located count == printed lines == library answer.
    let located = report.get("located").and_then(Json::as_u64).unwrap();
    assert_eq!(located as usize, printed);
    let mut ab = w.ab.clone();
    let path = parse_path("article section* figure", &mut ab).unwrap();
    assert_eq!(located as usize, path.locate(&w.doc).len());

    // A --phr run's report describes its PHR automata, mutually consistent.
    let u = docbook_universal(&mut ab);
    let phr = format!("[{u} ; figure ; {u}]([{u} ; section ; {u}])*[{u} ; article ; {u}]");
    let out = hxq(&[
        "--phr",
        &phr,
        "--metrics-json",
        json_path.to_str().unwrap(),
        xml.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(0));
    assert_eq!(String::from_utf8_lossy(&out.stdout), stdout);
    let text = std::fs::read_to_string(&json_path).unwrap();
    let phr_report = Json::parse(&text).expect("metrics JSON parses");
    let sizes = phr_report.get("plan").expect("plan sizes");
    assert_eq!(sizes.get("backend").and_then(Json::as_str), Some("phr"));
    let nha = sizes.get("nha_states").and_then(Json::as_u64).unwrap();
    let dha = sizes.get("dha_states").and_then(Json::as_u64).unwrap();
    assert!(nha > 0);
    let blowup = sizes.get("blowup_ratio").and_then(Json::as_f64).unwrap();
    assert!((blowup - dha as f64 / nha as f64).abs() < 1e-9);
    for c in sizes.get("components").and_then(Json::as_arr).unwrap() {
        let n = c.get("nha_states").and_then(Json::as_u64).unwrap();
        let d = c.get("dha_states").and_then(Json::as_u64).unwrap();
        if n < 32 {
            assert!(d <= 1 << n, "subset-construction bound violated");
        }
    }
    assert!(sizes.get("eq_classes").and_then(Json::as_u64).unwrap() > 0);
    assert_eq!(
        phr_report.get("located").and_then(Json::as_u64),
        Some(located)
    );

    // Phase timings exist and are non-negative numbers.
    let phases = report.get("phases").and_then(Json::as_arr).unwrap();
    assert!(phases
        .iter()
        .any(|p| p.get("name").and_then(Json::as_str) == Some("hedgex.compile")));
    for p in phases {
        assert!(p.get("wall_ns").and_then(Json::as_f64).unwrap() >= 0.0);
    }

    std::fs::remove_file(&xml).ok();
    std::fs::remove_file(&json_path).ok();
}

#[test]
fn phr_and_path_agree_through_the_cli() {
    let (xml_src, expected) = {
        let mut ab = Alphabet::new();
        let doc = parse_xml("<a><b/><c/><b/></a>").unwrap();
        let hedge = to_hedge(
            &doc,
            &mut ab,
            HedgeConfig {
                keep_text: true,
                keep_attrs: false,
            },
        );
        let flat = FlatHedge::from_hedge(&hedge);
        let path = parse_path("a b", &mut ab).unwrap();
        let hits = path.locate(&flat);
        (String::from("<a><b/><c/><b/></a>"), hits.len())
    };
    let xml = scratch("small.xml");
    std::fs::write(&xml, xml_src).unwrap();

    let out = hxq(&["--path", "a b", xml.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(0));
    let lines = String::from_utf8_lossy(&out.stdout).lines().count();
    assert_eq!(lines, expected);

    // Same query with --explain must print the same matches.
    let out2 = hxq(&["--path", "a b", "--explain", xml.to_str().unwrap()]);
    assert_eq!(out2.status.code(), Some(0));
    assert_eq!(out.stdout, out2.stdout);

    std::fs::remove_file(&xml).ok();
}

#[test]
fn repeat_reuses_one_plan_and_reports_aggregate_time() {
    let w = doc_workload(150, 7);
    let xml = scratch("repeat.xml");
    std::fs::write(&xml, write_xml(&w.doc, &w.ab, None)).unwrap();

    // One warm run must print exactly what a single cold run prints.
    let once = hxq(&["--path", "article section* figure", xml.to_str().unwrap()]);
    assert_eq!(once.status.code(), Some(0));
    let repeated = hxq(&[
        "--path",
        "article section* figure",
        "--repeat",
        "5",
        xml.to_str().unwrap(),
    ]);
    assert_eq!(
        repeated.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&repeated.stderr)
    );
    assert_eq!(once.stdout, repeated.stdout, "hits must not depend on N");

    // stderr carries the one-line aggregate summary.
    let err = String::from_utf8_lossy(&repeated.stderr);
    assert!(
        err.contains("repeat: 5 runs in"),
        "summary line missing: {err}"
    );
    assert!(err.contains("ms/run"), "per-run time missing: {err}");
    assert!(err.contains("nodes/s"), "throughput missing: {err}");

    // --repeat composes with --subhedge (warm plan, matches filtered by the
    // subhedge marks) and with
    // --phr (warm Plan path on an explicit PHR).
    let sub = hxq(&[
        "--path",
        "article section* figure",
        "--subhedge",
        "ε",
        "--repeat",
        "3",
        xml.to_str().unwrap(),
    ]);
    assert_eq!(sub.status.code(), Some(0));
    let sub_cold = hxq(&[
        "--path",
        "article section* figure",
        "--subhedge",
        "ε",
        xml.to_str().unwrap(),
    ]);
    assert_eq!(sub.stdout, sub_cold.stdout);
    assert!(String::from_utf8_lossy(&sub.stderr).contains("repeat: 3 runs in"));

    std::fs::remove_file(&xml).ok();
}

#[test]
fn jobs_matches_sequential_output_byte_for_byte() {
    let w = doc_workload(200, 11);
    let xml = scratch("jobs.xml");
    std::fs::write(&xml, write_xml(&w.doc, &w.ab, None)).unwrap();
    let query = ["--path", "article section* figure"];

    let seq = hxq(&[&query[..], &["--repeat", "4", xml.to_str().unwrap()]].concat());
    assert_eq!(
        seq.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&seq.stderr)
    );
    assert!(!seq.stdout.is_empty(), "workload should contain figures");

    // --jobs 1 takes the exact sequential code path: stdout byte-for-byte,
    // and the summary line does not advertise a worker pool.
    let one = hxq(&[
        &query[..],
        &["--repeat", "4", "--jobs", "1", xml.to_str().unwrap()],
    ]
    .concat());
    assert_eq!(one.status.code(), Some(0));
    assert_eq!(seq.stdout, one.stdout, "--jobs 1 must equal sequential");
    assert!(!String::from_utf8_lossy(&one.stderr).contains("workers"));

    // --jobs 3 goes through the pool but locates the same nodes, and the
    // summary says so.
    let three = hxq(&[
        &query[..],
        &["--repeat", "4", "--jobs", "3", xml.to_str().unwrap()],
    ]
    .concat());
    assert_eq!(
        three.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&three.stderr)
    );
    assert_eq!(seq.stdout, three.stdout, "--jobs 3 must equal sequential");
    let err = String::from_utf8_lossy(&three.stderr);
    assert!(err.contains("repeat: 4 runs in"), "summary missing: {err}");
    assert!(err.contains("3 workers"), "worker count missing: {err}");

    // --jobs without --repeat: a single run on the pool, no summary line.
    let plain = hxq(&[&query[..], &[xml.to_str().unwrap()]].concat());
    let pooled = hxq(&[&query[..], &["--jobs", "2", xml.to_str().unwrap()]].concat());
    assert_eq!(pooled.status.code(), Some(0));
    assert_eq!(plain.stdout, pooled.stdout);
    assert!(pooled.stderr.is_empty(), "no --repeat, no summary");

    // --jobs composes with --subhedge (one scratch per worker).
    let sub_seq = hxq(&[&query[..], &["--subhedge", "ε", xml.to_str().unwrap()]].concat());
    let sub_par = hxq(&[
        &query[..],
        &[
            "--subhedge",
            "ε",
            "--repeat",
            "3",
            "--jobs",
            "2",
            xml.to_str().unwrap(),
        ],
    ]
    .concat());
    assert_eq!(sub_par.status.code(), Some(0));
    assert_eq!(sub_seq.stdout, sub_par.stdout);
    assert!(String::from_utf8_lossy(&sub_par.stderr).contains("2 workers"));

    std::fs::remove_file(&xml).ok();
}

/// `hxq ARGS… XML` with `--metrics-json`: its output and the report's
/// `located` and `nodes` fields.
fn run_with_report(args: &[&str], stdin: Option<&str>) -> (Output, u64, u64) {
    let json = scratch("stream-parity.json");
    let args = [args, &["--metrics-json", json.to_str().unwrap()]].concat();
    let out = match stdin {
        Some(src) => hxq_stdin(&args, src),
        None => hxq(&args),
    };
    assert!(
        out.status.code().is_some_and(|c| c <= 1),
        "{args:?}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let report = Json::parse(&std::fs::read_to_string(&json).unwrap()).unwrap();
    std::fs::remove_file(&json).ok();
    let field = |k: &str| report.get(k).and_then(Json::as_u64).unwrap();
    (out, field("located"), field("nodes"))
}

/// `--stream` from the file and from stdin answer exactly like the file
/// route: stdout, exit code and the report's `located` and `nodes` (a path
/// `--exists` stops at its first match on every one of them).
fn assert_stream_parity(args: &[&str], xml: &std::path::Path, src: &str) {
    let xml = xml.to_str().unwrap();
    let (plain, located, nodes) = run_with_report(&[args, &[xml]].concat(), None);
    let streams = [
        run_with_report(&[args, &["--stream", xml]].concat(), None),
        run_with_report(&[args, &["--stream", "-"]].concat(), Some(src)),
    ];
    for (streamed, s_located, s_nodes) in streams {
        assert_eq!(plain.status.code(), streamed.status.code(), "{args:?}");
        assert_eq!(
            plain.stdout, streamed.stdout,
            "--stream must print the same lines ({args:?})"
        );
        assert_eq!(located, s_located, "{args:?}");
        assert_eq!(nodes, s_nodes, "{args:?}");
    }
}

#[test]
fn stream_matches_materialized_byte_for_byte() {
    let w = doc_workload(300, 13);
    let src = write_xml(&w.doc, &w.ab, None);
    let xml = scratch("stream.xml");
    std::fs::write(&xml, &src).unwrap();
    // The sibling-sensitive query: a figure whose next sibling is a table.
    let u = docbook_universal(&mut Alphabet::new());
    let figure_before_table = format!(
        "[{u} ; figure ; table<{u}> ({u})][{u} ; section ; {u}]([{u} ; section ; {u}]|[{u} ; article ; {u}])*"
    );
    for query in [
        &["--path", "article section* figure"][..],
        &["--phr", "[ε ; article ; ε]"][..],
        &["--phr", &figure_before_table][..],
    ] {
        for mode in [&[][..], &["--count"][..], &["--exists"][..]] {
            assert_stream_parity(&[query, mode].concat(), &xml, &src);
        }
    }
    std::fs::remove_file(&xml).ok();

    // A 100k-deep chain, where every node matches.
    let depth = 100_000;
    let chain = format!("{}{}", "<a>".repeat(depth), "</a>".repeat(depth));
    let xml = scratch("stream-chain.xml");
    std::fs::write(&xml, &chain).unwrap();
    for query in [&["--phr", "[ε ; a ; ε]*"][..], &["--path", "a* a"][..]] {
        for mode in [&["--count"][..], &["--exists"][..]] {
            assert_stream_parity(&[query, mode].concat(), &xml, &chain);
        }
    }
    std::fs::remove_file(&xml).ok();
}

/// `--stream --phr` is `--phr`: the same output and phases, and the one
/// walk of every PHR route, under the eval phase.
#[test]
fn stream_phr_answers_through_the_one_walk() {
    let xml = scratch("stream-walk.xml");
    std::fs::write(&xml, "<a><b/><a/></a>").unwrap();
    let (trace, json) = (
        scratch("stream-walk-trace.json"),
        scratch("stream-walk.json"),
    );
    let mut runs = Vec::new();
    for extra in [&[][..], &["--stream"][..]] {
        let out = hxq(&[
            extra,
            &[
                "--phr",
                "[ε ; a ; ε]",
                "--trace",
                trace.to_str().unwrap(),
                "--metrics-json",
                json.to_str().unwrap(),
                xml.to_str().unwrap(),
            ],
        ]
        .concat());
        assert_eq!(out.status.code(), Some(0), "{extra:?}");
        assert_eq!(out.stdout, b"/1\n", "{extra:?}");
        let report = Json::parse(&std::fs::read_to_string(&json).unwrap()).unwrap();
        let phases = report.get("phases").and_then(Json::as_arr).unwrap();
        let names: Vec<String> = phases
            .iter()
            .filter_map(|p| p.get("name").and_then(Json::as_str).map(String::from))
            .collect();
        assert_eq!(report.get("stream"), Some(&Json::Null), "{extra:?}");
        runs.push((out.stdout, names));

        if !hedgex::obs::is_enabled() {
            continue;
        }
        let text = std::fs::read_to_string(&trace).unwrap();
        let events = Json::parse(&text).expect("trace parses");
        let events = events.as_arr().expect("trace is an array");
        let arg = |e: &Json, k: &str| e.get("args").and_then(|a| a.get(k)).and_then(Json::as_u64);
        let span = |name: &str| {
            let mut found = events
                .iter()
                .filter(|e| e.get("name").and_then(Json::as_str) == Some(name));
            let e = found.next().unwrap_or_else(|| panic!("no {name} span"));
            assert!(found.next().is_none(), "one {name} span");
            e
        };
        let eval = span("hedgex.eval");
        let walk = span("core.two_pass");
        assert_eq!(arg(walk, "parent"), arg(eval, "id"), "{extra:?}");
    }
    assert_eq!(runs[0], runs[1], "--stream must not change a PHR run");
    for f in [&xml, &trace, &json] {
        std::fs::remove_file(f).ok();
    }
}

/// The flag never changes the answer. On input that is malformed after a
/// path query's first match, `--exists` stops reading at that match with
/// or without `--stream`, from a file or stdin; `--count` and every
/// `--phr` query read to the end and fail on the bad byte.
#[test]
fn malformed_tail_gets_one_answer_on_every_route() {
    let src = "<a><b/><c>";
    let xml = scratch("malformed-tail.xml");
    std::fs::write(&xml, src).unwrap();
    let xml = xml.to_str().unwrap();
    for extra in [&[][..], &["--stream"][..]] {
        for (file, stdin) in [(xml, None), ("-", Some(src))] {
            let run = |args: &[&str]| {
                let args = [args, extra, &[file]].concat();
                match stdin {
                    Some(input) => hxq_stdin(&args, input),
                    None => hxq(&args),
                }
            };
            let hit = run(&["--exists", "--path", "a b"]);
            assert_eq!(hit.status.code(), Some(0), "{extra:?} {file}");
            assert!(hit.stdout.is_empty(), "{extra:?} {file}");
            assert!(hit.stderr.is_empty(), "{extra:?} {file}");
            for args in [
                &["--count", "--path", "a b"][..],
                &["--exists", "--phr", "[ε ; b ; ε]"],
            ] {
                let out = run(args);
                assert_eq!(out.status.code(), Some(1), "{args:?} {extra:?} {file}");
                assert!(out.stdout.is_empty(), "{args:?} {extra:?} {file}");
                let err = String::from_utf8_lossy(&out.stderr);
                assert_eq!(err.lines().count(), 1, "one diagnostic: {err}");
                assert!(err.contains("XML error at byte"), "positioned: {err}");
            }
        }
    }
    std::fs::remove_file(xml).ok();
}

/// A byte that is not UTF-8 is a positioned XML error, exit 1 with one
/// line, from a file and from stdin on every route: an invalid byte, and a
/// sequence the input ends inside. A streamed `--exists` that matches
/// before the bad byte exits 0, as on any input malformed after a match.
#[test]
fn invalid_utf8_is_a_positioned_error_on_every_route() {
    for (src, at) in [
        (&b"<a><b/>\xff<c/></a>"[..], 7),
        (b"<a><b/><c/>\xe5\x90", 11),
    ] {
        let xml = scratch("invalid-utf8.xml");
        std::fs::write(&xml, src).unwrap();
        let xml = xml.to_str().unwrap();
        for (file, stdin) in [(xml, None), ("-", Some(src))] {
            let run = |args: &[&str]| {
                let args = [args, &[file]].concat();
                match stdin {
                    Some(input) => hxq_stdin(&args, input),
                    None => hxq(&args),
                }
            };
            for args in [
                &["--count", "--path", "a b"][..],
                &["--path", "a c"],
                &["--exists", "--path", "a d"],
                &["--mark", "--path", "a b"],
                &["--count", "--phr", "[ε ; b ; ε]"],
                &["--exists", "--phr", "[ε ; b ; ε]"],
            ] {
                let out = run(args);
                assert_eq!(out.status.code(), Some(1), "{args:?} {file}");
                assert!(out.stdout.is_empty(), "{args:?} {file}");
                let err = String::from_utf8_lossy(&out.stderr);
                assert_eq!(err.lines().count(), 1, "one diagnostic: {err}");
                let want = format!("XML error at byte {at}: invalid UTF-8");
                assert!(err.contains(&want), "{args:?} {file}: {err}");
            }
            let hit = run(&["--exists", "--path", "a b"]);
            assert_eq!(hit.status.code(), Some(0), "{file}");
            assert!(hit.stdout.is_empty() && hit.stderr.is_empty(), "{file}");
        }
        std::fs::remove_file(xml).ok();
    }
}

/// The largest resident set `/proc/PID/status` reports, polled every
/// half millisecond until the child exits, in kB.
fn peak_rss_kb(child: &mut std::process::Child) -> u64 {
    let status = format!("/proc/{}/status", child.id());
    let mut peak = 0;
    while child.try_wait().expect("hxq runs").is_none() {
        let hwm = std::fs::read_to_string(&status).ok().and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<u64>().ok()
        });
        peak = peak.max(hwm.unwrap_or(0));
        std::thread::sleep(std::time::Duration::from_micros(500));
    }
    peak
}

/// A streamed `--count --path` over a 64 MB pipe holds one window of the
/// input, not all of it: its peak resident set stays far below the input.
#[test]
fn streamed_count_over_a_large_pipe_keeps_memory_bounded() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_hxq"))
        .args(["--count", "--path", "r a", "-"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .expect("hxq spawns");
    let mut stdin = child.stdin.take().expect("stdin is piped");
    let writer = std::thread::spawn(move || {
        let chunk = "<a>text</a>\n<b/>\n".repeat(4096);
        let (mut written, mut elements) = (0, 0);
        stdin.write_all(b"<r>")?;
        while written < 64 << 20 {
            stdin.write_all(chunk.as_bytes())?;
            (written, elements) = (written + chunk.len(), elements + 4096);
        }
        stdin.write_all(b"</r>")?;
        Ok::<_, std::io::Error>(elements)
    });
    let peak = peak_rss_kb(&mut child);
    let elements = writer.join().unwrap().expect("hxq reads all of its input");
    let out = child.wait_with_output().expect("hxq runs");
    assert_eq!(out.status.code(), Some(0));
    assert_eq!(
        String::from_utf8_lossy(&out.stdout),
        format!("{elements}\n")
    );
    assert!(peak > 0, "VmHWM was read");
    assert!(peak < 12_000, "peak RSS {peak} kB over a 64 MB input");
}

/// A streamed `--exists --path` whose first chunk matches exits 0 and
/// stops reading: the writer of a pipe that never ends sees it closed.
/// The writer sends 16 MB and then holds the pipe open without writing, so
/// a reader that waits for the end of its input times out with bounded
/// memory instead of reading forever.
#[test]
fn streamed_exists_stops_reading_an_endless_pipe() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_hxq"))
        .args(["--exists", "--path", "r a", "-"])
        .stdin(Stdio::piped())
        .spawn()
        .expect("hxq spawns");
    let mut stdin = child.stdin.take().expect("stdin is piped");
    let (done, wait) = std::sync::mpsc::channel::<()>();
    let writer = std::thread::spawn(move || {
        let more = "<b/>".repeat(1024);
        stdin.write_all(b"<r><a/>")?;
        for _ in 0..4096 {
            stdin.write_all(more.as_bytes())?;
        }
        // Never end the input: hold the pipe open until the test is over.
        wait.recv().ok();
        Ok::<_, std::io::Error>(())
    });
    let start = std::time::Instant::now();
    let status = loop {
        if let Some(status) = child.try_wait().expect("hxq runs") {
            break status;
        }
        if start.elapsed().as_secs() > 60 {
            child.kill().ok();
            drop(done);
            panic!("hxq kept reading a pipe that never ends");
        }
        std::thread::sleep(std::time::Duration::from_millis(1));
    };
    drop(done);
    assert_eq!(status.code(), Some(0));
    let closed = writer.join().unwrap();
    assert_eq!(closed.unwrap_err().kind(), ErrorKind::BrokenPipe);
}

/// A start tag that repeats an attribute name is malformed (XML 1.0's
/// Unique Att Spec): every route, with or without `--attrs`, from a file
/// or stdin, exits 1 with one positioned diagnostic and prints nothing.
#[test]
fn repeated_attribute_is_a_positioned_error_on_every_route() {
    let src = "<a k='1' k='2'/>";
    let xml = scratch("repeated-attr.xml");
    std::fs::write(&xml, src).unwrap();
    let xml = xml.to_str().unwrap();
    for attrs in [&[][..], &["--attrs"][..]] {
        for (file, stdin) in [(xml, None), ("-", Some(src))] {
            for query in [
                &["--count", "--path", "a attr:k"][..],
                &["--exists", "--path", "a"],
                &["--path", "a"],
                &["--mark", "--path", "a"],
                &["--count", "--phr", "[ε ; a ; ε]"],
                &["--repeat", "2", "--count", "--path", "a"],
            ] {
                let args = [attrs, query, &[file]].concat();
                let out = match stdin {
                    Some(input) => hxq_stdin(&args, input),
                    None => hxq(&args),
                };
                assert_eq!(out.status.code(), Some(1), "{args:?}");
                assert!(out.stdout.is_empty(), "{args:?}");
                let err = String::from_utf8_lossy(&out.stderr);
                assert_eq!(err.lines().count(), 1, "one diagnostic: {err}");
                assert!(
                    err.contains("XML error at byte 9: attribute 'k' repeated in tag 'a'"),
                    "{args:?}: {err}"
                );
            }
        }
    }
    std::fs::remove_file(xml).ok();
}

/// `--stream` is accepted and ignored: with each flag that used to refuse
/// it, a request prints and exits exactly as it does without it.
#[test]
fn stream_flag_changes_no_answer() {
    let (dir, store) = indexed_corpus("stream-flag");
    let xml = dir.join("b.xml");
    let (xml, store) = (xml.to_str().unwrap(), store.to_str().unwrap());
    let query = ["--path", "r a b"];
    for flags in [
        &["--mark", xml][..],
        &["--subhedge", "ε", xml],
        &["--repeat", "2", xml],
        &["--jobs", "2", xml],
        &["--store", store],
    ] {
        let plain = hxq(&[&query[..], flags].concat());
        let flagged = hxq(&[&query[..], flags, &["--stream"]].concat());
        assert_eq!(plain.status.code(), Some(0), "{flags:?}");
        assert_eq!(flagged.status.code(), plain.status.code(), "{flags:?}");
        assert!(!plain.stdout.is_empty(), "{flags:?}");
        assert_eq!(flagged.stdout, plain.stdout, "{flags:?}");
        // A --repeat summary carries its timings; everything else on
        // stderr must match too.
        if flags[0] != "--repeat" {
            assert_eq!(flagged.stderr, plain.stderr, "{flags:?}");
        }
    }
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_file(store).ok();
}

#[test]
fn truncated_stdin_exits_1_in_both_modes() {
    // The classic dropped-connection input: an element never closed.
    for extra in [&[][..], &["--stream"][..]] {
        for query in [&["--path", "a b"][..], &["--phr", "[ε ; a ; ε]"][..]] {
            let out = hxq_stdin(&[query, extra, &["-"]].concat(), "<a><b>");
            assert_eq!(
                out.status.code(),
                Some(1),
                "truncated stdin must be a runtime error ({query:?} {extra:?})"
            );
            assert!(out.stdout.is_empty(), "no matches may be printed");
            let err = String::from_utf8_lossy(&out.stderr);
            assert_eq!(err.lines().count(), 1, "diagnostic must be one line: {err}");
            assert!(
                err.contains("XML error at byte"),
                "position must be reported: {err}"
            );
        }
    }
}

#[test]
fn exists_exit_codes_with_and_without_stream() {
    let xml = scratch("exists.xml");
    std::fs::write(&xml, "<a><b/><c/></a>").unwrap();
    for extra in [&[][..], &["--stream"][..]] {
        let hit = hxq(&[
            &["--path", "a b", "--exists"][..],
            extra,
            &[xml.to_str().unwrap()],
        ]
        .concat());
        assert_eq!(hit.status.code(), Some(0), "a match means exit 0 {extra:?}");
        assert!(hit.stdout.is_empty(), "grep -q semantics: no output");

        let miss = hxq(&[
            &["--path", "a d", "--exists"][..],
            extra,
            &[xml.to_str().unwrap()],
        ]
        .concat());
        assert_eq!(
            miss.status.code(),
            Some(1),
            "no match means exit 1 {extra:?}"
        );
        assert!(miss.stdout.is_empty());
        assert!(miss.stderr.is_empty(), "a miss is not an error");
    }
    std::fs::remove_file(&xml).ok();
}

#[test]
fn count_agrees_with_located_lines_in_every_mode() {
    let w = doc_workload(300, 5);
    let src = write_xml(&w.doc, &w.ab, None);
    let xml = scratch("count.xml");
    std::fs::write(&xml, &src).unwrap();

    for query in [
        &["--path", "article section* figure"][..],
        &["--phr", "[ε ; article ; ε]"][..],
    ] {
        // Ground truth: the plain run's printed Dewey lines.
        let plain = hxq(&[query, &[xml.to_str().unwrap()]].concat());
        assert_eq!(plain.status.code(), Some(0));
        let expected = String::from_utf8_lossy(&plain.stdout).lines().count();
        assert!(expected > 0, "workload should contain figures");

        // Materialized --count prints exactly that number, nothing else.
        let counted = hxq(&[query, &["--count", xml.to_str().unwrap()]].concat());
        assert_eq!(
            counted.status.code(),
            Some(0),
            "stderr: {}",
            String::from_utf8_lossy(&counted.stderr)
        );
        assert_eq!(
            String::from_utf8_lossy(&counted.stdout).trim(),
            expected.to_string(),
            "{query:?}"
        );

        // Streaming --count: same number, from a file and from stdin.
        let streamed = hxq(&[query, &["--stream", "--count", xml.to_str().unwrap()]].concat());
        assert_eq!(streamed.status.code(), Some(0));
        assert_eq!(counted.stdout, streamed.stdout, "{query:?} --stream");
        let piped = hxq_stdin(&[query, &["--stream", "--count", "-"]].concat(), &src);
        assert_eq!(piped.status.code(), Some(0));
        assert_eq!(counted.stdout, piped.stdout, "{query:?} --stream via stdin");
    }

    // --count composes with --repeat/--jobs (the mode-generic warm path)
    // and the summary line still lands on stderr.
    let pooled = hxq(&[
        "--phr",
        "[ε ; article ; ε]",
        "--count",
        "--repeat",
        "3",
        "--jobs",
        "2",
        xml.to_str().unwrap(),
    ]);
    assert_eq!(pooled.status.code(), Some(0));
    let single = hxq(&[
        "--phr",
        "[ε ; article ; ε]",
        "--count",
        xml.to_str().unwrap(),
    ]);
    assert_eq!(single.stdout, pooled.stdout, "count must not depend on N/J");
    assert!(String::from_utf8_lossy(&pooled.stderr).contains("repeat: 3 runs in"));

    // A count of zero is an answer: "0" on stdout, exit 0, in both modes.
    for extra in [&[][..], &["--stream"][..]] {
        let zero = hxq(&[
            &["--path", "article nosuch", "--count"][..],
            extra,
            &[xml.to_str().unwrap()],
        ]
        .concat());
        assert_eq!(zero.status.code(), Some(0), "{extra:?}");
        assert_eq!(String::from_utf8_lossy(&zero.stdout).trim(), "0");
        assert!(zero.stderr.is_empty());
    }
    std::fs::remove_file(&xml).ok();
}

#[test]
fn graded_bounds_run_through_the_cli_and_the_cap_exits_2() {
    let xml = scratch("graded.xml");
    std::fs::write(&xml, "<r><x/><x/><b/><x/></r>").unwrap();

    // b with at least two elder x siblings: the document's b qualifies.
    // (Triplet sequences read node-to-root: the b triplet comes first.)
    let hit = hxq(&[
        "--phr",
        "[x{>=2} ; b ; x{<=1}][ε ; r ; ε]",
        xml.to_str().unwrap(),
    ]);
    assert_eq!(
        hit.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&hit.stderr)
    );
    assert_eq!(String::from_utf8_lossy(&hit.stdout).trim(), "/1/3");

    // Demanding three elder x's must miss; --count says 0 and exits 0.
    let miss = hxq(&[
        "--phr",
        "[x{>=3} ; b ; x*][ε ; r ; ε]",
        "--count",
        xml.to_str().unwrap(),
    ]);
    assert_eq!(miss.status.code(), Some(0));
    assert_eq!(String::from_utf8_lossy(&miss.stdout).trim(), "0");

    // A bound past the expansion cap is rejected as a usage error with a
    // one-line diagnostic naming the cap — no document is evaluated.
    let over = hxq(&["--phr", "[x{>=100000} ; b ; ε]", xml.to_str().unwrap()]);
    assert_eq!(over.status.code(), Some(2), "cap violation must exit 2");
    assert!(over.stdout.is_empty());
    let err = String::from_utf8_lossy(&over.stderr);
    assert_eq!(err.lines().count(), 1, "one-line diagnostic: {err}");
    assert!(err.contains("over the cap"), "{err:?} should name the cap");

    std::fs::remove_file(&xml).ok();
}

#[test]
fn check_satisfiable_exits_0_with_witness_and_required_symbols() {
    let out = hxq(&["check", "[ε ; a ; b]"]);
    assert_eq!(out.status.code(), Some(0));
    let txt = String::from_utf8_lossy(&out.stdout);
    assert!(txt.contains("check: satisfiable"), "{txt}");
    assert!(txt.contains("witness:"), "{txt}");
    assert!(txt.contains("required symbols:"), "{txt}");
}

#[test]
fn check_schema_unsat_exits_1_with_analysis_only_metrics() {
    let json_path = scratch("check-unsat.json");
    let out = hxq(&[
        "check",
        "[ε ; c ; ε]",
        "--schema",
        "(a<%z>|b<%z>)*^z",
        "--metrics-json",
        json_path.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(1), "provably empty must exit 1");
    let txt = String::from_utf8_lossy(&out.stdout);
    assert!(txt.contains("check: empty"), "{txt}");
    assert!(
        txt.contains("schema"),
        "reason must mention the schema: {txt}"
    );

    // Zero evaluation work: the metrics record only parse + analyze —
    // no first_pass/second_pass ever ran.
    let raw = std::fs::read_to_string(&json_path).expect("metrics written");
    assert!(!raw.contains("first_pass"), "{raw}");
    assert!(!raw.contains("second_pass"), "{raw}");
    let json = Json::parse(&raw).expect("valid JSON");
    let phases: Vec<String> = json
        .get("phases")
        .and_then(Json::as_arr)
        .expect("phases array")
        .iter()
        .map(|p| {
            p.get("name")
                .and_then(Json::as_str)
                .expect("phase name")
                .to_string()
        })
        .collect();
    assert_eq!(phases, ["parse", "analyze"]);
    assert!(matches!(json.get("satisfiable"), Some(Json::Bool(false))));
    std::fs::remove_file(&json_path).ok();
}

#[test]
fn check_containment_verdicts_and_counterexamples() {
    // Narrow (no siblings allowed) is strictly contained in wide.
    let wide = "[(a<%z>|b<%z>)*^z ; a ; (a<%z>|b<%z>)*^z]";
    let out = hxq(&["check", "[ε ; a ; ε]", "--against", wide]);
    assert_eq!(out.status.code(), Some(0));
    let txt = String::from_utf8_lossy(&out.stdout);
    assert!(txt.contains("strictly contained in"), "{txt}");
    assert!(txt.contains("counterexample (against \\ query):"), "{txt}");

    // Equivalence of a query with itself.
    let out = hxq(&["check", wide, "--against", wide]);
    assert_eq!(out.status.code(), Some(0));
    let txt = String::from_utf8_lossy(&out.stdout);
    assert!(txt.contains("equivalent"), "{txt}");
}

/// Build a small corpus directory and index it; returns (dir, store path).
fn indexed_corpus(tag: &str) -> (PathBuf, PathBuf) {
    let dir = scratch(&format!("corpus-{tag}"));
    std::fs::create_dir_all(&dir).expect("corpus dir");
    for (name, xml) in [
        ("a.xml", "<r><a><b/></a><c/></r>"),
        ("b.xml", "<r><c/><a><b/><b/></a></r>"),
        ("c.xml", "<r><c/><c/></r>"),
        ("notes.txt", "not xml, must be ignored"),
    ] {
        std::fs::write(dir.join(name), xml).unwrap();
    }
    let store = scratch(&format!("corpus-{tag}.hxst"));
    let out = hxq(&[
        "index",
        dir.to_str().unwrap(),
        "--out",
        store.to_str().unwrap(),
    ]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let txt = String::from_utf8_lossy(&out.stdout);
    assert!(
        txt.contains("indexed 3 documents"),
        "the .txt file must not be indexed: {txt}"
    );
    (dir, store)
}

#[test]
fn store_queries_answer_like_grep_over_the_corpus() {
    let (dir, store) = indexed_corpus("roundtrip");
    let store_s = store.to_str().unwrap();

    // Locate prints `name:/dewey` lines, documents in name order.
    let out = hxq(&["--store", store_s, "--path", "r a b"]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let lines: Vec<String> = String::from_utf8_lossy(&out.stdout)
        .lines()
        .map(String::from)
        .collect();
    assert_eq!(lines, ["a.xml:/1/1/1", "b.xml:/1/2/1", "b.xml:/1/2/2"]);

    // --count agrees with the number of located lines; --exists with their
    // existence (exit 0 on a hit, 1 on a miss, grep -q style).
    let counted = hxq(&["--store", store_s, "--path", "r a b", "--count"]);
    assert_eq!(counted.status.code(), Some(0));
    assert_eq!(
        String::from_utf8_lossy(&counted.stdout).trim(),
        lines.len().to_string()
    );
    let hit = hxq(&["--store", store_s, "--path", "r a b", "--exists"]);
    assert_eq!(hit.status.code(), Some(0));
    assert!(hit.stdout.is_empty(), "grep -q semantics: no output");
    let miss = hxq(&["--store", store_s, "--path", "r nosuch", "--exists"]);
    assert_eq!(miss.status.code(), Some(1));
    assert!(miss.stderr.is_empty(), "a miss is not an error");

    // A symbol absent from every document prunes the whole corpus but is
    // still an answer, not an error.
    let zero = hxq(&["--store", store_s, "--path", "zzz", "--count"]);
    assert_eq!(zero.status.code(), Some(0));
    assert_eq!(String::from_utf8_lossy(&zero.stdout).trim(), "0");

    // --phr takes the same store path as --path: "a b anywhere" spelled
    // as an explicit PHR must count every b under an a (all three).
    let u = "(r<%z>|a<%z>|b<%z>|c<%z>)*^z";
    let any_b = format!("[{u} ; b ; {u}]([{u} ; a ; {u}]|[{u} ; r ; {u}])*");
    let phr = hxq(&["--store", store_s, "--phr", &any_b, "--count"]);
    assert_eq!(
        phr.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&phr.stderr)
    );
    assert_eq!(String::from_utf8_lossy(&phr.stdout).trim(), "3");

    // --repeat/--jobs compose: same stdout, summary on stderr.
    let pooled = hxq(&[
        "--store", store_s, "--path", "r a b", "--repeat", "3", "--jobs", "2",
    ]);
    assert_eq!(pooled.status.code(), Some(0));
    assert_eq!(out.stdout, pooled.stdout, "hits must not depend on N/J");
    let err = String::from_utf8_lossy(&pooled.stderr);
    assert!(err.contains("repeat: 3 runs in"), "summary missing: {err}");
    assert!(err.contains("2 workers"), "worker count missing: {err}");

    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_file(&store).ok();
}

#[test]
fn store_runtime_errors_exit_1_with_one_line_diagnostics() {
    // A missing store file is a runtime error naming the path.
    let out = hxq(&["--store", "/nonexistent/nosuch.hxst", "--path", "a"]);
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(err.lines().count(), 1, "diagnostic must be one line: {err}");
    assert!(err.contains("nosuch.hxst"), "{err:?} should name the store");

    // A corrupted store reports the typed loader error, positioned.
    let bad = scratch("corrupt.hxst");
    std::fs::write(&bad, b"HXSTgarbage").unwrap();
    let out = hxq(&["--store", bad.to_str().unwrap(), "--path", "a"]);
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(err.lines().count(), 1, "one-line diagnostic: {err}");
    assert!(err.contains("byte"), "loader position missing: {err}");

    // `index` over a directory with no *.xml files is a runtime error.
    let empty = scratch("empty-corpus");
    std::fs::create_dir_all(&empty).unwrap();
    let out = hxq(&[
        "index",
        empty.to_str().unwrap(),
        "--out",
        scratch("never.hxst").to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("no *.xml files"));

    std::fs::remove_file(&bad).ok();
    std::fs::remove_dir_all(&empty).ok();
}

#[test]
fn stores_in_an_older_format_ask_for_a_reindex() {
    // Stamp a fresh store with version 1, the format that also serialized
    // the index, or version 2, whose checksum was FNV-1a: loading refuses
    // either by version, in one line naming the file, exit 1.
    let (dir, store) = indexed_corpus("old-version");
    let fresh = std::fs::read(&store).unwrap();
    for version in [1u32, 2] {
        let mut bytes = fresh.clone();
        bytes[4..8].copy_from_slice(&version.to_le_bytes());
        std::fs::write(&store, &bytes).unwrap();
        let out = hxq(&["--store", store.to_str().unwrap(), "--count", "--path", "a"]);
        assert_eq!(out.status.code(), Some(1));
        assert!(out.stdout.is_empty());
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(err.lines().count(), 1, "one-line diagnostic: {err}");
        assert!(
            err.contains(&format!("unsupported store version {version}"))
                && err.contains("re-run `hxq index`")
                && err.contains(store.to_str().unwrap()),
            "{err}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_file(&store).ok();
}

#[test]
fn store_usage_errors_exit_2() {
    for (args, needle) in [
        (
            &["--store", "-", "--path", "a"][..],
            "cannot read from stdin",
        ),
        (
            &["--store", "s.hxst", "--path", "a", "doc.xml"][..],
            "takes no FILE argument",
        ),
        (
            &["--store", "s.hxst", "--path", "a", "--mark"][..],
            "'--store' is incompatible with '--mark'",
        ),
        (&["--store", "s.hxst"][..], "one of --path or --phr"),
        (&["index"][..], "needs a directory"),
        (&["index", "somedir"][..], "needs '--out STORE'"),
        (&["index", "somedir", "--out"][..], "needs a value"),
        (
            &["index", "somedir", "--out", "s.hxst", "--bogus"][..],
            "unknown",
        ),
    ] {
        let out = hxq(args);
        assert_eq!(out.status.code(), Some(2), "args {args:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(err.lines().count(), 1, "one-line diagnostic: {err}");
        assert!(err.contains(needle), "{err:?} should mention {needle:?}");
        assert!(out.stdout.is_empty());
    }
}

#[test]
fn check_usage_errors_exit_2() {
    for (args, needle) in [
        (&["check"][..], "needs a query"),
        (&["check", "[ε ; a ; ε]", "--schema"][..], "needs a value"),
        (&["check", "not a phr"][..], "query:"),
        (&["check", "[ε ; a ; ε]", "--bogus"][..], "unknown option"),
        (
            &["check", "[ε ; a ; ε]", "--against-subhedge", "ε"][..],
            "needs '--against'",
        ),
    ] {
        let out = hxq(args);
        assert_eq!(out.status.code(), Some(2), "args {args:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(needle), "{err:?} should mention {needle:?}");
    }
}

/// Every flag combination runs `--path` on the same §8 DFA plan: stdout
/// and exit code never depend on `--repeat`/`--jobs`, in any mode.
#[test]
fn path_answers_are_byte_identical_across_execution_flags() {
    let w = doc_workload(400, 17);
    let xml = scratch("path-parity.xml");
    std::fs::write(&xml, write_xml(&w.doc, &w.ab, None)).unwrap();
    let xml_s = xml.to_str().unwrap();
    for query in ["article section* figure", "article nosuch"] {
        for mode in [&[][..], &["--count"][..], &["--exists"][..]] {
            let run =
                |flags: &[&str]| hxq(&[&["--path", query][..], mode, flags, &[xml_s]].concat());
            let plain = run(&[]);
            assert!(
                plain.status.code().is_some_and(|c| c <= 1),
                "{query} {mode:?}"
            );
            for flags in [
                &["--repeat", "3"][..],
                &["--jobs", "2"][..],
                &["--repeat", "3", "--jobs", "2"][..],
            ] {
                let out = run(flags);
                assert_eq!(
                    out.status.code(),
                    plain.status.code(),
                    "{query} {mode:?} {flags:?}"
                );
                assert_eq!(out.stdout, plain.stdout, "{query} {mode:?} {flags:?}");
            }
        }
    }
    std::fs::remove_file(&xml).ok();
}

/// `--store --path` prints exactly what `--path` prints file by file, each
/// line prefixed with the document's name.
#[test]
fn store_path_equals_per_file_path_with_name_prefix() {
    let corpus = scratch("path-store-corpus");
    std::fs::create_dir_all(&corpus).unwrap();
    let mut names = Vec::new();
    for seed in 0..4u64 {
        let w = doc_workload(150 + 50 * seed as usize, 40 + seed);
        let name = format!("doc{seed}.xml");
        std::fs::write(corpus.join(&name), write_xml(&w.doc, &w.ab, None)).unwrap();
        names.push(name);
    }
    let store = scratch("path-store.hxst");
    let out = hxq(&[
        "index",
        corpus.to_str().unwrap(),
        "--out",
        store.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(0));
    for query in [
        "article section* figure",
        "article (section|para)*",
        "sidebar",
    ] {
        let mut expected = String::new();
        let mut total = 0usize;
        for name in &names {
            let file = corpus.join(name);
            let out = hxq(&["--path", query, file.to_str().unwrap()]);
            assert_eq!(out.status.code(), Some(0));
            for line in String::from_utf8_lossy(&out.stdout).lines() {
                expected.push_str(&format!("{name}:{line}\n"));
                total += 1;
            }
        }
        let stored = hxq(&["--store", store.to_str().unwrap(), "--path", query]);
        assert_eq!(stored.status.code(), Some(0));
        assert_eq!(String::from_utf8_lossy(&stored.stdout), expected, "{query}");
        let counted = hxq(&[
            "--store",
            store.to_str().unwrap(),
            "--count",
            "--path",
            query,
        ]);
        assert_eq!(
            String::from_utf8_lossy(&counted.stdout).trim(),
            total.to_string()
        );
    }
    std::fs::remove_dir_all(&corpus).ok();
    std::fs::remove_file(&store).ok();
}

/// The engine is visible in the trace: a `--path` run never compiles PHR
/// automata, whether it runs over a store or repeated on a worker pool.
#[test]
fn path_runs_never_compile_a_phr() {
    let w = doc_workload(200, 23);
    let corpus = scratch("trace-path-corpus");
    std::fs::create_dir_all(&corpus).unwrap();
    let xml = corpus.join("doc.xml");
    std::fs::write(&xml, write_xml(&w.doc, &w.ab, None)).unwrap();
    let store = scratch("trace-path.hxst");
    let out = hxq(&[
        "index",
        corpus.to_str().unwrap(),
        "--out",
        store.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(0));
    let trace = scratch("trace-path.json");
    let span_names = |args: &[&str]| -> Vec<String> {
        let out = hxq(&[args, &["--trace", trace.to_str().unwrap()]].concat());
        assert_eq!(
            out.status.code(),
            Some(0),
            "{args:?}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let text = std::fs::read_to_string(&trace).unwrap();
        Json::parse(&text)
            .expect("trace parses")
            .as_arr()
            .expect("trace is an array")
            .iter()
            .filter_map(|e| e.get("name").and_then(Json::as_str).map(String::from))
            .collect()
    };
    let query = "article section* figure";
    for args in [
        &["--store", store.to_str().unwrap(), "--path", query][..],
        &[
            "--repeat",
            "3",
            "--jobs",
            "2",
            "--path",
            query,
            xml.to_str().unwrap(),
        ][..],
    ] {
        let names = span_names(args);
        assert!(
            !names.iter().any(|n| n.starts_with("core.phr_compile")),
            "{args:?} compiled a PHR: {names:?}"
        );
        if hedgex::obs::is_enabled() {
            assert!(names.iter().any(|n| n == "core.path_compile"), "{args:?}");
        }
    }
    // The check can see a PHR compile when one happens.
    if hedgex::obs::is_enabled() {
        let names = span_names(&["--phr", "[ε ; article ; ε]", xml.to_str().unwrap()]);
        assert!(names.iter().any(|n| n == "core.phr_compile"));
    }
    std::fs::remove_dir_all(&corpus).ok();
    std::fs::remove_file(&store).ok();
    std::fs::remove_file(&trace).ok();
}

/// The span names of one run's `--trace` timeline, sorted (a multiset).
fn traced_span_names(args: &[&str], trace: &std::path::Path) -> Vec<String> {
    let out = hxq(&[args, &["--trace", trace.to_str().unwrap()]].concat());
    assert!(
        out.status.code().is_some_and(|c| c <= 1),
        "{args:?}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(trace).unwrap();
    let mut names: Vec<String> = Json::parse(&text)
        .expect("trace parses")
        .as_arr()
        .expect("trace is an array")
        .iter()
        .filter_map(|e| e.get("name").and_then(Json::as_str).map(String::from))
        .collect();
    names.sort();
    names
}

/// Report flags never change the engine: with `--explain --metrics-json`
/// every route records exactly the spans it records without them, apart
/// from the report's own.
#[test]
fn report_flags_never_change_the_engine() {
    if !hedgex::obs::is_enabled() {
        return;
    }
    let w = doc_workload(200, 29);
    let corpus = scratch("report-engine-corpus");
    std::fs::create_dir_all(&corpus).unwrap();
    let xml = corpus.join("doc.xml");
    std::fs::write(&xml, write_xml(&w.doc, &w.ab, None)).unwrap();
    let store = scratch("report-engine.hxst");
    let out = hxq(&[
        "index",
        corpus.to_str().unwrap(),
        "--out",
        store.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(0));
    let (xml, store) = (xml.to_str().unwrap(), store.to_str().unwrap());
    let trace = scratch("report-engine-trace.json");
    let json = scratch("report-engine.json");
    let u = docbook_universal(&mut Alphabet::new());
    let phr = format!("[{u} ; figure ; {u}][{u} ; section ; {u}]");
    for query in [&["--path", "article section* figure"][..], &["--phr", &phr]] {
        for mode in [&[][..], &["--count"][..], &["--exists"][..]] {
            for source in [&[xml][..], &["--stream", xml][..], &["--store", store][..]] {
                let args = [query, mode, source].concat();
                let plain = traced_span_names(&args, &trace);
                let reported = [&args[..], &["--explain", "--metrics-json"][..]].concat();
                let mut reported = traced_span_names(
                    &[&reported[..], &[json.to_str().unwrap()][..]].concat(),
                    &trace,
                );
                reported.retain(|n| n != "hedgex.report");
                assert_eq!(plain, reported, "{args:?}");
                assert!(plain.iter().any(|n| n == "hedgex.compile"), "{args:?}");
            }
        }
    }
    std::fs::remove_dir_all(&corpus).ok();
    for f in [store, trace.to_str().unwrap(), json.to_str().unwrap()] {
        std::fs::remove_file(f).ok();
    }
}

/// One report from every source: file, stdin, `--stream` (from a file and
/// from stdin) and `--store` all write a report with the same top-level
/// keys, whose phases and residual sum to its wall time.
#[test]
fn one_report_from_every_source() {
    let (dir, store) = indexed_corpus("report-sources");
    let xml = dir.join("b.xml");
    let src = std::fs::read_to_string(&xml).unwrap();
    let (xml, store) = (xml.to_str().unwrap(), store.to_str().unwrap());
    let json = scratch("report-sources.json");
    let json_s = json.to_str().unwrap();
    let mut keys: Option<Vec<String>> = None;
    for query in [
        &["--path", "r a b"][..],
        &["--phr", "[ε ; b ; ε][ε ; a ; ε]"],
    ] {
        // A path query streams from a file or stdin; a PHR never does.
        let path = query[0] == "--path";
        let (file, stdin) = if path {
            ("stream", "stream")
        } else {
            ("file", "stdin")
        };
        for (source, stdin, expect) in [
            (&[xml][..], false, file),
            (&["-"][..], true, stdin),
            (&["--stream", xml][..], false, file),
            (&["--stream", "-"][..], true, stdin),
            (&["--store", store][..], false, "store"),
        ] {
            let args = [query, source, &["--explain", "--metrics-json", json_s]].concat();
            let out = if stdin {
                hxq_stdin(&args, &src)
            } else {
                hxq(&args)
            };
            assert_eq!(
                out.status.code(),
                Some(0),
                "{args:?}: {}",
                String::from_utf8_lossy(&out.stderr)
            );
            assert!(String::from_utf8_lossy(&out.stderr).starts_with("explain:"));
            let report = Json::parse(&std::fs::read_to_string(&json).unwrap()).unwrap();
            let Json::Obj(fields) = &report else {
                panic!("a report is an object")
            };
            let names: Vec<String> = fields.iter().map(|(k, _)| k.clone()).collect();
            assert_eq!(
                keys.get_or_insert_with(|| names.clone()),
                &names,
                "{args:?}"
            );
            assert_eq!(report.get("source").and_then(Json::as_str), Some(expect));
            assert_eq!(report.get("schema").and_then(Json::as_u64), Some(1));
            let ns = |j: &Json, k: &str| j.get(k).and_then(Json::as_u64).unwrap();
            let phases: u64 = report
                .get("phases")
                .and_then(Json::as_arr)
                .unwrap()
                .iter()
                .map(|p| ns(p, "wall_ns"))
                .sum();
            assert_eq!(
                phases + ns(&report, "unattributed_ns"),
                ns(&report, "wall_ns"),
                "{args:?}"
            );
            let printed = String::from_utf8_lossy(&out.stdout).lines().count() as u64;
            assert_eq!(ns(&report, "located"), printed, "{args:?}");
            // A file or stdin is read inside its parse, in chunks: the time
            // spent in `read` is a counter, not a phase.
            let metrics = report.get("metrics").unwrap();
            if metrics.get("enabled") == Some(&Json::Bool(true)) {
                let counters = metrics.get("counters").unwrap();
                let read_ns = counters.get("xml.read_ns").and_then(Json::as_u64);
                let read = read_ns.is_some_and(|ns| ns > 0);
                assert_eq!(read, expect != "store", "{args:?}");
            }
        }
    }
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_file(store).ok();
    std::fs::remove_file(&json).ok();
}

/// A path report describes the DFA that answered, so a document with more
/// labels than a PHR has triplets is no obstacle.
#[test]
fn path_reports_on_a_65_label_document_exit_0() {
    let xml = scratch("65-labels.xml");
    let children: String = (0..64).map(|i| format!("<l{i}/>")).collect();
    std::fs::write(&xml, format!("<r>{children}</r>")).unwrap();
    let json = scratch("65-labels.json");
    let out = hxq(&[
        "--path",
        "r l7",
        "--explain",
        "--metrics-json",
        json.to_str().unwrap(),
        xml.to_str().unwrap(),
    ]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(String::from_utf8_lossy(&out.stdout), "/1/8\n");
    let report = Json::parse(&std::fs::read_to_string(&json).unwrap()).unwrap();
    let plan = report.get("plan").unwrap();
    assert_eq!(plan.get("backend").and_then(Json::as_str), Some("path"));
    std::fs::remove_file(&xml).ok();
    std::fs::remove_file(&json).ok();
}

/// `hxq … | head -1`: when the reader closes stdout early, every route
/// stops quietly with exit 0 — no panic, nothing on stderr.
#[test]
fn closed_stdout_stops_quietly_on_every_route() {
    let corpus = scratch("closed-stdout-corpus");
    std::fs::create_dir_all(&corpus).unwrap();
    let xml = corpus.join("many.xml");
    // 50 000 matches: far more output than a pipe buffers.
    std::fs::write(&xml, format!("<r>{}</r>", "<a/>".repeat(50_000))).unwrap();
    let store = scratch("closed-stdout.hxst");
    let out = hxq(&[
        "index",
        corpus.to_str().unwrap(),
        "--out",
        store.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(0));
    let (xml, store) = (xml.to_str().unwrap(), store.to_str().unwrap());
    for args in [
        &["--path", "r a", xml][..],
        &["--phr", "[ε ; a ; ε][ε ; r ; ε]", xml],
        &["--stream", "--path", "r a", xml],
        &["--stream", "--phr", "[ε ; a ; ε][ε ; r ; ε]", xml],
        &["--store", store, "--path", "r a"],
        &["--mark", "--path", "r a", xml],
    ] {
        let mut child = Command::new(env!("CARGO_BIN_EXE_hxq"))
            .args(args)
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("hxq spawns");
        drop(child.stdout.take());
        let out = child.wait_with_output().expect("hxq runs");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(!err.contains("panicked"), "{args:?}: {err}");
        assert!(err.is_empty(), "{args:?}: {err}");
        assert_eq!(out.status.code(), Some(0), "{args:?}");
    }
    std::fs::remove_dir_all(&corpus).ok();
    std::fs::remove_file(store).ok();
}

/// A `--store --phr` run answers from the plan's own structural facts: no
/// mode and no worker count runs the static analyzer, and every answer
/// agrees with the per-file runs.
#[test]
fn store_phr_runs_never_analyze() {
    let corpus = scratch("trace-phr-corpus");
    std::fs::create_dir_all(&corpus).unwrap();
    let mut files = Vec::new();
    for seed in 0..3u64 {
        let w = doc_workload(150 + 50 * seed as usize, 60 + seed);
        let file = corpus.join(format!("doc{seed}.xml"));
        std::fs::write(&file, write_xml(&w.doc, &w.ab, None)).unwrap();
        files.push(file);
    }
    let store = scratch("trace-phr.hxst");
    let out = hxq(&[
        "index",
        corpus.to_str().unwrap(),
        "--out",
        store.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(0));
    let trace = scratch("trace-phr.json");
    let trace_s = trace.to_str().unwrap();
    let u = docbook_universal(&mut Alphabet::new());
    for phr in [
        format!("[{u} ; figure ; {u}][{u} ; section ; {u}]"),
        format!("[{u} ; title ; {u}][{u} ; sidebar ; {u}]"),
    ] {
        let per_file: u64 = files
            .iter()
            .map(|f| {
                let out = hxq(&["--count", "--phr", &phr, f.to_str().unwrap()]);
                assert_eq!(out.status.code(), Some(0));
                String::from_utf8_lossy(&out.stdout)
                    .trim()
                    .parse::<u64>()
                    .unwrap()
            })
            .sum();
        let store_s = store.to_str().unwrap();
        for (flags, expect_code) in [
            (&[][..], 0),
            (&["--count"][..], 0),
            (&["--count", "--jobs", "2"][..], 0),
            (&["--exists"][..], if per_file > 0 { 0 } else { 1 }),
        ] {
            let args = [
                &["--store", store_s, "--phr", &phr, "--trace", trace_s][..],
                flags,
            ]
            .concat();
            let out = hxq(&args);
            assert_eq!(out.status.code(), Some(expect_code), "{flags:?}");
            let stdout = String::from_utf8_lossy(&out.stdout);
            let answer = match flags.first() {
                None => stdout.lines().count() as u64,
                Some(&"--count") => stdout.trim().parse().unwrap(),
                _ => per_file,
            };
            assert_eq!(answer, per_file, "{flags:?}");
            let text = std::fs::read_to_string(&trace).unwrap();
            let names: Vec<String> = Json::parse(&text)
                .expect("trace parses")
                .as_arr()
                .expect("trace is an array")
                .iter()
                .filter_map(|e| e.get("name").and_then(Json::as_str).map(String::from))
                .collect();
            assert!(
                !names.iter().any(|n| n.starts_with("analyze.")),
                "{flags:?} ran the analyzer: {names:?}"
            );
            if hedgex::obs::is_enabled() {
                assert!(names.iter().any(|n| n == "core.phr_compile"), "{flags:?}");
            }
        }
    }
    std::fs::remove_dir_all(&corpus).ok();
    std::fs::remove_file(&store).ok();
    std::fs::remove_file(&trace).ok();
}

/// Path query text is bounded: nesting and size up to the limits run (on
/// the main thread, in every route), one past them is a positioned usage
/// error instead of a stack overflow.
#[test]
fn path_query_limits_run_at_the_limit_and_exit_2_beyond() {
    use hedgex::core::hre::{MAX_QUERY_NESTING, MAX_QUERY_STEPS};
    let xml = scratch("limits.xml");
    std::fs::write(&xml, "<a><a/></a>").unwrap();
    let xml_s = xml.to_str().unwrap();
    let nested = |d: usize| format!("{}a{}", "(".repeat(d), ")".repeat(d));
    // `a a … a*`: one step per name and per juxtaposition, one for the star.
    let long = |k: usize| format!("{}a*", "a ".repeat(k - 1));
    for (at, past, needle) in [
        (
            nested(MAX_QUERY_NESTING),
            nested(MAX_QUERY_NESTING + 1),
            format!("byte {MAX_QUERY_NESTING}: parentheses nested deeper"),
        ),
        (
            long(MAX_QUERY_STEPS / 2),
            long(MAX_QUERY_STEPS / 2 + 1),
            format!("larger than {MAX_QUERY_STEPS} steps"),
        ),
    ] {
        for flags in [&[][..], &["--count"][..], &["--stream"][..]] {
            let ok = hxq(&[&["--path", at.as_str()][..], flags, &[xml_s]].concat());
            assert_eq!(
                ok.status.code(),
                Some(0),
                "at the limit {flags:?}: {}",
                String::from_utf8_lossy(&ok.stderr)
            );
            let bad = hxq(&[&["--path", past.as_str()][..], flags, &[xml_s]].concat());
            assert_eq!(bad.status.code(), Some(2), "past the limit {flags:?}");
            let err = String::from_utf8_lossy(&bad.stderr);
            assert_eq!(err.lines().count(), 1, "one-line diagnostic: {err}");
            assert!(err.contains("query:") && err.contains(&needle), "{err}");
        }
    }
    std::fs::remove_file(&xml).ok();
}

/// PHR and HRE query text is bounded like path text: a 65th triplet and
/// 30k-deep or 30k-long expressions are one-line usage errors on every
/// route that parses them, never a panic or a stack overflow.
#[test]
fn phr_and_hre_query_limits_exit_2_on_every_route() {
    let (dir, store) = indexed_corpus("limits");
    let xml = dir.join("a.xml");
    let (xml, store) = (xml.to_str().unwrap(), store.to_str().unwrap());
    const HUGE: usize = 30_000;
    let triplet = "[ε ; a ; ε]";
    let parens = |inner: &str| format!("{}{inner}{}", "(".repeat(HUGE), ")".repeat(HUGE));
    let nodes = format!("{}a{}", "a<".repeat(HUGE), ">".repeat(HUGE));
    let flat = vec!["a"; HUGE].join(" ");
    let hres = [parens("a"), nodes, flat];
    let mut phrs = vec![triplet.repeat(65), parens(triplet)];
    phrs.extend(hres.iter().map(|e| format!("[{e} ; a ; ε]")));
    let mut runs: Vec<(Vec<&str>, &str)> = Vec::new();
    for phr in &phrs {
        runs.push((vec!["--phr", phr, xml], "query:"));
        runs.push((vec!["--count", "--store", store, "--phr", phr], "query:"));
        runs.push((vec!["check", phr], "query:"));
    }
    for e in &hres {
        runs.push((vec!["--path", "r a", "--subhedge", e, xml], "subhedge:"));
        runs.push((vec!["check", triplet, "--subhedge", e], "subhedge:"));
    }
    for (args, needle) in runs {
        let out = hxq(&args);
        let err = String::from_utf8_lossy(&out.stderr);
        let shown: Vec<String> = args.iter().map(|a| a.chars().take(24).collect()).collect();
        assert_eq!(out.status.code(), Some(2), "{shown:?}: {err}");
        assert!(out.stdout.is_empty(), "{shown:?}");
        assert_eq!(err.lines().count(), 1, "one-line diagnostic: {err}");
        assert!(err.contains(needle), "{shown:?}: {err}");
    }
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_file(store).ok();
}

/// An `<a>` chain `depth` levels deep.
fn chain(depth: usize) -> String {
    format!("{}{}", "<a>".repeat(depth), "</a>".repeat(depth))
}

#[test]
fn deep_documents_answer_without_stream_and_from_a_store() {
    // A million levels: the default route ingests through the event parser
    // straight into the arena, and every evaluator it reaches is iterative.
    let corpus = scratch("chain-1m-corpus");
    std::fs::create_dir_all(&corpus).unwrap();
    let xml = corpus.join("chain.xml");
    std::fs::write(&xml, chain(1_000_000)).unwrap();
    let xml_s = xml.to_str().unwrap();
    for query in [&["--path", "a*"][..], &["--phr", "[ε ; a ; ε]*"][..]] {
        let out = hxq(&[query, &["--count", xml_s]].concat());
        assert_eq!(
            out.status.code(),
            Some(0),
            "{query:?}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert_eq!(String::from_utf8_lossy(&out.stdout).trim(), "1000000");
    }

    // Indexing is linear in nodes whatever the depth: the store holds one
    // record per node, and the loader derives the index in linear time.
    let store = scratch("chain-1m.hxst");
    let out = hxq(&[
        "index",
        corpus.to_str().unwrap(),
        "--out",
        store.to_str().unwrap(),
    ]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stored = hxq(&[
        "--store",
        store.to_str().unwrap(),
        "--count",
        "--path",
        "a*",
    ]);
    assert_eq!(
        stored.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&stored.stderr)
    );
    assert_eq!(String::from_utf8_lossy(&stored.stdout).trim(), "1000000");
    std::fs::remove_dir_all(&corpus).ok();
    std::fs::remove_file(&store).ok();
}

/// Locate output is linear in the answer however wide a level is: 200 000
/// siblings under one root are addressed on every route, each with the
/// same lines, well within a bound that a per-hit scan from the eldest
/// sibling (quadratic in the width) misses by far.
#[test]
fn wide_documents_locate_in_linear_time_on_every_route() {
    const WIDTH: usize = 200_000;
    const BOUND: std::time::Duration = std::time::Duration::from_secs(20);
    let corpus = scratch("wide-corpus");
    std::fs::create_dir_all(&corpus).unwrap();
    let xml = corpus.join("wide.xml");
    let src = format!("<r>{}</r>", "<a/>".repeat(WIDTH));
    std::fs::write(&xml, &src).unwrap();
    let store = scratch("wide.hxst");
    let out = hxq(&[
        "index",
        corpus.to_str().unwrap(),
        "--out",
        store.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(0));
    let (xml, store) = (xml.to_str().unwrap(), store.to_str().unwrap());
    let every_a = "[a* ; a ; a*][ε ; r ; ε]";
    let routes: [(&[&str], Option<&str>); 7] = [
        (&["--path", "r a", xml], None),
        (&["--phr", every_a, xml], None),
        (&["--path", "r a", "-"], Some(src.as_str())),
        (&["--stream", "--path", "r a", xml], None),
        (&["--stream", "--phr", every_a, xml], None),
        (&["--store", store, "--path", "r a"], None),
        (
            &["--repeat", "2", "--jobs", "2", "--path", "r a", xml],
            None,
        ),
    ];
    let mut first: Option<String> = None;
    for (args, stdin) in routes {
        let started = std::time::Instant::now();
        let out = match stdin {
            Some(input) => hxq_stdin(args, input),
            None => hxq(args),
        };
        let took = started.elapsed();
        assert_eq!(
            out.status.code(),
            Some(0),
            "{args:?}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert!(took < BOUND, "{args:?} took {took:?}");
        let stdout = String::from_utf8(out.stdout).unwrap();
        let stdout = match args[0] {
            "--store" => stdout
                .lines()
                .map(|line| {
                    let line = line.strip_prefix("wide.xml:");
                    format!("{}\n", line.expect("the store names the document"))
                })
                .collect(),
            _ => stdout,
        };
        match &first {
            Some(lines) => assert!(stdout == *lines, "{args:?} differs from the file route"),
            None => first = Some(stdout),
        }
    }
    let lines: Vec<&str> = first.as_deref().unwrap().lines().collect();
    assert_eq!(lines.len(), WIDTH);
    for k in [1, 2, 1_000, WIDTH / 2 + 1, WIDTH] {
        assert_eq!(lines[k - 1], format!("/1/{k}"));
    }
    std::fs::remove_dir_all(&corpus).ok();
    std::fs::remove_file(store).ok();
}

/// `--mark` prints one line per node indented by its depth, so its output
/// grows with depth squared (a million levels would be terabytes). The
/// depth check therefore shrinks the stack instead: under 128 KiB, a parser
/// or writer recursing per level overflows long before 2 000 levels.
#[cfg(unix)]
#[test]
fn mark_writes_deep_documents_in_a_small_stack() {
    const DEPTH: usize = 2_000;
    let xml = scratch("chain-mark.xml");
    std::fs::write(&xml, chain(DEPTH)).unwrap();
    let out = Command::new("sh")
        .args([
            "-c",
            "ulimit -s 128 && exec \"$0\" \"$@\"",
            env!("CARGO_BIN_EXE_hxq"),
            "--mark",
            "--path",
            "a*",
            xml.to_str().unwrap(),
        ])
        .output()
        .expect("sh runs hxq");
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 2 * DEPTH - 1);
    for (d, line) in lines.iter().enumerate().take(DEPTH - 1) {
        assert_eq!(*line, format!("{}<a hx:match=\"1\">", "  ".repeat(d)));
    }
    assert_eq!(
        lines[DEPTH - 1],
        format!("{}<a hx:match=\"1\"/>", "  ".repeat(DEPTH - 1))
    );
    assert_eq!(lines[2 * DEPTH - 2], "</a>");
    std::fs::remove_file(&xml).ok();
}

#[test]
fn index_writes_the_store_the_tree_pipeline_builds() {
    // Attributes, text, entities, CDATA, comments, PIs and several roots:
    // everything the two ingestion routes must map identically.
    let corpus = scratch("parity-corpus");
    std::fs::create_dir_all(&corpus).unwrap();
    let files = [
        (
            "a.xml",
            r#"<?xml version="1.0"?><r id="1"><a k='v' j="&amp;">hi &lt;b&gt;<b/></a><!-- c --></r>"#,
        ),
        (
            "b.xml",
            "<r><c/>  <a><![CDATA[<raw>]]><?pi x?><b x=\"y\"/></a></r><r/>",
        ),
        (
            "c.xml",
            "<doc>\n  <sec n=\"2\">t&#65;il<fig/></sec>\n</doc>\n",
        ),
    ];
    for (name, xml) in files {
        std::fs::write(corpus.join(name), xml).unwrap();
    }
    for keep_attrs in [false, true] {
        let store = scratch(&format!("parity-{keep_attrs}.hxst"));
        let mut args = vec![
            "index",
            corpus.to_str().unwrap(),
            "--out",
            store.to_str().unwrap(),
        ];
        if keep_attrs {
            args.push("--attrs");
        }
        let out = hxq(&args);
        assert_eq!(
            out.status.code(),
            Some(0),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );

        let cfg = HedgeConfig {
            keep_text: true,
            keep_attrs,
        };
        let mut ab = Alphabet::new();
        let docs: Vec<(String, FlatHedge)> = files
            .iter()
            .map(|(name, xml)| {
                let h = to_hedge(&parse_xml(xml).unwrap(), &mut ab, cfg);
                (name.to_string(), FlatHedge::from_hedge(&h))
            })
            .collect();
        let expected = DocumentStore::build(ab, docs).to_bytes();
        assert!(
            std::fs::read(&store).unwrap() == expected,
            "store bytes differ (keep_attrs={keep_attrs})"
        );
        std::fs::remove_file(&store).ok();
    }
    std::fs::remove_dir_all(&corpus).ok();
}
