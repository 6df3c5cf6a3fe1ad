//! Acceptance tests for the report of `hedgex::run`: it describes the one
//! run that answered — its layers, the automata of its plan, its answer —
//! is internally consistent, agrees with the library's evaluators, and
//! round-trips through the JSON layer unchanged.

use std::path::{Path, PathBuf};

use hedgex::core::mark_down::compile_to_dha;
use hedgex::core::plan::Backend;
use hedgex::core::{mark_run, two_pass, Phr};
use hedgex::prelude::*;
use hedgex::run::{Query, Source};
use hedgex::{Report, Request};
use hedgex_bench::{doc_workload, docbook_universal};
use hedgex_testkit::Json;

/// The benchmark's figure-before-table PHR, as query text.
fn figure_before_table() -> String {
    let u = docbook_universal(&mut Alphabet::new());
    format!(
        "[{u} ; figure ; table<{u}> ({u})][{u} ; section ; {u}]([{u} ; section ; {u}]|[{u} ; article ; {u}])*"
    )
}

/// A generated DocBook document written to a file of its own.
fn docbook_file(name: &str, nodes: usize, seed: u64) -> PathBuf {
    let w = doc_workload(nodes, seed);
    let dir = std::env::temp_dir().join(format!("hedgex-explain-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let file = dir.join(name);
    std::fs::write(&file, write_xml(&w.doc, &w.ab, None)).unwrap();
    file
}

/// Locate `query` in `file` with a report; returns stdout and the report.
fn report_on(file: &Path, query: Query, subhedge: Option<&str>) -> (String, Report) {
    let req = Request {
        source: Source::File(file.to_str().unwrap().into()),
        query,
        subhedge: subhedge.map(String::from),
        mode: EvalMode::Locate,
        mark: false,
        config: HedgeConfig::default(),
        repeat: None,
        jobs: 1,
        report: true,
    };
    let mut out = Vec::new();
    let ran = hedgex::run(&req, &mut out).expect("the run answers");
    let report = ran.report.expect("a report was requested");
    (String::from_utf8(out).unwrap(), report)
}

/// The file's document as the run parses it, with `phr` in its alphabet.
fn parsed(file: &Path, phr: &str) -> (Alphabet, FlatHedge, Phr) {
    let mut ab = Alphabet::new();
    let src = std::fs::read_to_string(file).unwrap();
    let flat = parse_flat(&src, &mut ab, HedgeConfig::default()).unwrap();
    let phr = parse_phr(phr, &mut ab).unwrap();
    (ab, flat, phr)
}

fn dewey_lines(flat: &FlatHedge, hits: &[u32]) -> String {
    hits.iter()
        .map(|&n| {
            let parts: Vec<String> = flat.dewey(n).iter().map(u32::to_string).collect();
            format!("/{}\n", parts.join("/"))
        })
        .collect()
}

/// The report's `plan` object, as JSON.
fn plan_json(report: &Report) -> Json {
    report.to_json().get("plan").expect("plan sizes").clone()
}

fn size(json: &Json, key: &str) -> u64 {
    json.get(key).and_then(Json::as_u64).expect(key)
}

#[test]
fn docbook_report_is_consistent() {
    let file = docbook_file("consistent.xml", 400, 1);
    let query = figure_before_table();
    let (stdout, report) = report_on(&file, Query::Phr(query.clone()), None);

    // Phases: every layer of the one run, in execution order, summing with
    // the residual to the wall time.
    let names: Vec<&str> = report.phases.iter().map(|p| p.name).collect();
    assert_eq!(
        names,
        [
            "hedgex.query_parse",
            "hedgex.parse",
            "hedgex.compile",
            "hedgex.eval",
            "hedgex.output",
            "hedgex.report"
        ]
    );
    assert!(
        report.phases[3].wall_ns > 0,
        "compile cannot take zero time"
    );
    let phases: u64 = report.phases.iter().map(|p| p.wall_ns).sum();
    assert_eq!(phases + report.unattributed_ns, report.wall_ns);

    // Theorem 1 bound, per component: |DHA| ≤ 2^|NHA| (and nothing empty).
    let sizes = plan_json(&report);
    assert_eq!(sizes.get("backend").and_then(Json::as_str), Some("phr"));
    let components = sizes.get("components").and_then(Json::as_arr).unwrap();
    assert!(!components.is_empty());
    for c in components {
        let (nha, dha) = (size(c, "nha_states"), size(c, "dha_states"));
        assert!(nha > 0);
        assert!(dha > 0);
        if nha < 32 {
            assert!(
                dha <= 1u64 << nha,
                "determinization exceeded the subset bound: {dha} vs 2^{nha}"
            );
        }
    }
    let nha: u64 = components.iter().map(|c| size(c, "nha_states")).sum();
    let dha: u64 = components.iter().map(|c| size(c, "dha_states")).sum();
    assert_eq!(size(&sizes, "nha_states"), nha);
    assert_eq!(size(&sizes, "dha_states"), dha);
    let blowup = sizes.get("blowup_ratio").and_then(Json::as_f64).unwrap();
    assert!((blowup - dha as f64 / nha as f64).abs() < 1e-12);
    assert!(size(&sizes, "m_states") > 0);
    assert!(size(&sizes, "eq_classes") > 0);
    assert!(size(&sizes, "n_states") > 0);

    // The answer is exactly what a plan and the reference traversals find.
    let (_, flat, phr) = parsed(&file, &query);
    assert_eq!(report.nodes, flat.num_nodes() as u64);
    let plain = two_pass::locate(&CompiledPhr::compile(&phr), &flat);
    assert_eq!(Plan::compile(&phr).locate(&flat), plain);
    assert_eq!(stdout, dewey_lines(&flat, &plain));
    assert_eq!(report.located, plain.len() as u64);
    assert!(report.located > 0, "workload should contain matches");
    std::fs::remove_file(&file).ok();
}

#[test]
fn subhedge_filter_matches_manual_marking() {
    let file = docbook_file("subhedge.xml", 400, 1);
    let query = figure_before_table();
    let e1 = "caption<$#text>";
    let (stdout, report) = report_on(&file, Query::Phr(query.clone()), Some(e1));

    // The subhedge condition compiles with the plan and filters inside the
    // one evaluation: no layer of its own.
    let names: Vec<&str> = report.phases.iter().map(|p| p.name).collect();
    assert_eq!(
        names,
        [
            "hedgex.query_parse",
            "hedgex.parse",
            "hedgex.compile",
            "hedgex.eval",
            "hedgex.output",
            "hedgex.report"
        ]
    );

    let (mut ab, flat, phr) = parsed(&file, &query);
    let e1 = parse_hre(e1, &mut ab).unwrap();
    let mut expected = two_pass::locate(&CompiledPhr::compile(&phr), &flat);
    let marks = mark_run(&compile_to_dha(&e1), &flat);
    expected.retain(|&n| marks[n as usize]);
    assert_eq!(
        CompiledSelect::new(Plan::compile(&phr), &e1).locate(&flat),
        expected
    );
    assert_eq!(stdout, dewey_lines(&flat, &expected));
    assert_eq!(report.located, expected.len() as u64);
    std::fs::remove_file(&file).ok();
}

#[test]
fn path_reports_describe_the_dfa_that_answered() {
    let file = docbook_file("path.xml", 300, 2);
    let (stdout, report) = report_on(&file, Query::Path("article section* figure".into()), None);
    let Backend::Path(dfa) = report.plan.backend() else {
        panic!("a --path run reports its DFA")
    };
    assert!(dfa.num_states() > 0);
    let sizes = plan_json(&report);
    assert_eq!(sizes.get("backend").and_then(Json::as_str), Some("path"));
    assert_eq!(size(&sizes, "dfa_states"), dfa.num_states() as u64);
    let mut ab = Alphabet::new();
    let src = std::fs::read_to_string(&file).unwrap();
    let flat = parse_flat(&src, &mut ab, HedgeConfig::default()).unwrap();
    let path = parse_path("article section* figure", &mut ab).unwrap();
    let hits = path.locate(&flat);
    assert_eq!(stdout, dewey_lines(&flat, &hits));
    assert_eq!(report.located, hits.len() as u64);
    std::fs::remove_file(&file).ok();
}

#[test]
fn report_json_round_trips() {
    let file = docbook_file("round-trip.xml", 200, 3);
    let (_, report) = report_on(&file, Query::Phr(figure_before_table()), None);

    let json = report.to_json();
    let reparsed = Json::parse(&json.to_string()).expect("report JSON parses");
    assert_eq!(reparsed, json, "JSON text must round-trip losslessly");

    // The fields every report carries, whatever its source.
    for key in [
        "schema",
        "source",
        "query",
        "mode",
        "phases",
        "wall_ns",
        "unattributed_ns",
        "nodes",
        "located",
        "plan",
        "stream",
        "metrics",
        "trace",
    ] {
        assert!(json.get(key).is_some(), "missing report field '{key}'");
    }
    let plan = json.get("plan").unwrap();
    for key in [
        "components",
        "nha_states",
        "dha_states",
        "blowup_ratio",
        "m_states",
        "eq_classes",
        "n_states",
        "pruned_states",
    ] {
        assert!(plan.get(key).is_some(), "missing plan field '{key}'");
    }
    assert_eq!(json.get("source").and_then(Json::as_str), Some("file"));
    assert_eq!(json.get("query").and_then(Json::as_str), Some("phr"));
    assert_eq!(json.get("mode").and_then(Json::as_str), Some("locate"));
    assert_eq!(json.get("stream"), Some(&Json::Null));
    assert_eq!(
        json.get("located").and_then(Json::as_u64),
        Some(report.located)
    );

    // The metrics section reflects whether instrumentation is compiled in.
    let enabled = json.get("metrics").and_then(|m| m.get("enabled"));
    assert_eq!(enabled, Some(&Json::Bool(hedgex::obs::is_enabled())));

    // The trace is a Chrome trace-event array: empty when obs is compiled
    // out, else complete events with the fields the viewers require.
    let trace = json
        .get("trace")
        .and_then(Json::as_arr)
        .expect("trace is an array");
    if hedgex::obs::is_enabled() {
        assert!(!trace.is_empty(), "an instrumented run records spans");
        for e in trace {
            assert_eq!(e.get("ph").and_then(Json::as_str), Some("X"));
            for key in ["name", "ts", "dur", "pid", "tid"] {
                assert!(e.get(key).is_some(), "trace event missing '{key}'");
            }
        }
    } else {
        assert!(trace.is_empty());
    }
    std::fs::remove_file(&file).ok();
}

/// Each distinct component compiles once: the figure-before-table PHR has
/// eight sibling slots but two distinct expressions (`U` and
/// `table<U> (U)`), so Lemma 1 and Theorem 1 each run twice.
#[test]
fn figure_before_table_compiles_each_distinct_component_once() {
    if !hedgex::obs::is_enabled() {
        return;
    }
    let file = docbook_file("sharing.xml", 200, 4);
    let json_path = file.with_extension("json");
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_hxq"))
        .args(["--count", "--phr", &figure_before_table(), "--metrics-json"])
        .arg(&json_path)
        .arg(&file)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let json = Json::parse(&std::fs::read_to_string(&json_path).unwrap()).unwrap();
    let counters = json.get("metrics").and_then(|m| m.get("counters")).unwrap();
    for name in ["core.compile.calls", "ha.determinize.calls"] {
        assert_eq!(counters.get(name).and_then(Json::as_u64), Some(2), "{name}");
    }
    std::fs::remove_file(&json_path).ok();
    std::fs::remove_file(&file).ok();
}
