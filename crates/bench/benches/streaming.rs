//! Experiment E9 — answering a query off the parser's event stream vs
//! building the arena and running the plan's walk, on the same bytes.
//!
//! The *materialized* rows run [`parse_flat`] (the event parser driving a
//! `FlatHedge` builder) and then [`Plan::eval_into`]: for a PHR that is
//! what every `hxq --phr` query runs, and for a path query it is the arena
//! route that `--mark`, `--subhedge` and `--repeat` take. The *streamed*
//! rows run [`stream_xml`] into a sink on the same plan's automaton. The
//! two query classes stream differently:
//!
//! * a path plan's top-down DFA ([`PathStream`]) needs only the open
//!   ancestor chain, so it builds no arena at all, and `exists` aborts the
//!   parse at the first match (the `streamed_path_exists` row). This is
//!   what `hxq --path FILE` (or `-`) runs;
//! * Algorithm 1 cannot answer before the input ends, so [`PhrStream`]
//!   builds the same arena `parse_flat` does and runs the same walk at the
//!   end: `streamed_phr` should track `materialized_phr`. No `hxq` route
//!   runs it; it is the library's sink.
//!
//! The `memory_proxy` extra records each sink's transient high-water (the
//! open chain for both) against the node count. The tree route
//! (`parse_xml` → `to_hedge` → `FlatHedge::from_hedge`) and the reference
//! evaluators (`PathExpr::locate`, `two_pass::locate`) stay as the oracle
//! every timed route is asserted against first.

use hedgex_testkit::{Bench, BenchmarkId, Json, Throughput};

use hedgex_bench::{doc_workload, figure_before_table_phr};
use hedgex_core::path_expr::parse_path;
use hedgex_core::phr::parse_phr;
use hedgex_core::plan::Backend;
use hedgex_core::{two_pass, EvalMode, EvalScratch, Plan};
use hedgex_hedge::FlatHedge;
use hedgex_stream::{parse_flat, stream_xml, PathStream, PhrStream, StreamStats};
use hedgex_xml::{parse_xml, to_hedge, write_xml, HedgeConfig};

const PATH_QUERY: &str = "article section* figure";

/// A streaming sink on a path plan's own DFA, as `hxq --path FILE` builds it.
fn path_sink(plan: &Plan) -> PathStream {
    let Backend::Path(dfa) = plan.backend() else {
        unreachable!("a path plan")
    };
    PathStream::from_compiled(dfa.clone())
}

fn main() {
    let mut c = Bench::from_env();
    let smoke = c.smoke();
    let sizes: &[usize] = if smoke { &[1_000] } else { &[4_000, 32_000] };
    let cfg = HedgeConfig::default();

    let mut group = c.benchmark_group("E9_streaming");
    group.sample_size(if smoke { 10 } else { 15 });
    let mut extras: Vec<Json> = Vec::new();

    for &n in sizes {
        let mut w = doc_workload(n, 0xE9);
        let src = write_xml(&w.doc, &w.ab, None);
        let path = parse_path(PATH_QUERY, &mut w.ab).expect("path parses");
        let phr = figure_before_table_phr(&mut w.ab);
        // `w.ab` already holds every symbol the document uses, so interning
        // while parsing is read-only lookup and ids match `w.doc`'s.
        let mut ab = w.ab;
        let path_plan = Plan::path(&path, &ab);
        let phr_plan = Plan::compile(&phr);
        let compiled = phr_plan.compiled();

        // Correctness before time: every timed route answers like the
        // reference evaluators on the tree route's arena.
        let oracle = FlatHedge::from_hedge(&to_hedge(&parse_xml(&src).unwrap(), &mut ab, cfg));
        let flat = parse_flat(&src, &mut ab, cfg).expect("well-formed");
        assert!(flat == oracle, "parse_flat != the tree route");
        let mut scratch = EvalScratch::new();
        let path_want = path.locate(&oracle);
        let phr_want = two_pass::locate(compiled, &oracle);
        assert_eq!(path_plan.locate_into(&flat, &mut scratch), &path_want[..]);
        assert_eq!(phr_plan.locate_into(&flat, &mut scratch), &phr_want[..]);
        let path_stats = {
            let mut sink = path_sink(&path_plan);
            stream_xml(&src, &mut ab, cfg, &mut sink).expect("well-formed");
            assert_eq!(sink.finish(), &path_want[..], "path: streamed");
            sink.stats()
        };
        let phr_stats = {
            let mut sink = PhrStream::new(compiled);
            stream_xml(&src, &mut ab, cfg, &mut sink).expect("well-formed");
            assert_eq!(sink.finish(), &phr_want[..], "phr: streamed");
            sink.stats()
        };
        drop((oracle, flat));

        group.throughput(Throughput::Bytes(src.len() as u64));
        for (kind, plan) in [("path", &path_plan), ("phr", &phr_plan)] {
            group.bench_with_input(
                BenchmarkId::new(&format!("materialized_{kind}"), w.nodes),
                &src,
                |b, src| {
                    b.iter(|| {
                        let flat = parse_flat(src, &mut ab, cfg).expect("well-formed");
                        std::hint::black_box(plan.eval_into(&flat, &mut scratch, EvalMode::Locate))
                    })
                },
            );
        }
        group.bench_with_input(
            BenchmarkId::new("streamed_path", w.nodes),
            &src,
            |b, src| {
                b.iter(|| {
                    let mut sink = path_sink(&path_plan);
                    stream_xml(src, &mut ab, cfg, &mut sink).expect("well-formed");
                    std::hint::black_box(sink.finish().len())
                })
            },
        );
        group.bench_with_input(BenchmarkId::new("streamed_phr", w.nodes), &src, |b, src| {
            b.iter(|| {
                let mut sink = PhrStream::new(compiled);
                stream_xml(src, &mut ab, cfg, &mut sink).expect("well-formed");
                std::hint::black_box(sink.finish().len())
            })
        });
        // The early-exit row: stop at the first figure instead of reading
        // the whole document.
        group.bench_with_input(
            BenchmarkId::new("streamed_path_exists", w.nodes),
            &src,
            |b, src| {
                b.iter(|| {
                    let mut sink = path_sink(&path_plan).exists(true);
                    stream_xml(src, &mut ab, cfg, &mut sink).expect("well-formed");
                    std::hint::black_box(sink.finish().len())
                })
            },
        );

        let exists_stats = {
            let mut sink = path_sink(&path_plan).exists(true);
            stream_xml(&src, &mut ab, cfg, &mut sink).expect("well-formed");
            sink.finish();
            sink.stats()
        };
        extras.push(stats_json(
            "docbook",
            w.nodes,
            src.len(),
            &path_stats,
            &phr_stats,
            Some(&exists_stats),
        ));
    }

    // The depth-is-the-bound worst case: an element chain where every node
    // is an ancestor of the last. The wide DocBook rows above show
    // live_high_water ≪ nodes; this row shows it tracking depth exactly.
    {
        let depth = if smoke { 2_000 } else { 50_000 };
        let src = format!("{}{}", "<a>".repeat(depth), "</a>".repeat(depth));
        let mut ab = hedgex_hedge::Alphabet::new();
        let phr = parse_phr("[ε ; a ; ε]*", &mut ab).expect("phr parses");
        let phr_plan = Plan::compile(&phr);
        let path = parse_path("a* a", &mut ab).expect("path parses");
        let path_plan = Plan::path(&path, &ab);
        let phr_stats = {
            let mut sink = PhrStream::new(phr_plan.compiled());
            stream_xml(&src, &mut ab, cfg, &mut sink).expect("well-formed");
            assert_eq!(sink.finish().len(), depth);
            sink.stats()
        };
        let path_stats = {
            let mut sink = path_sink(&path_plan);
            stream_xml(&src, &mut ab, cfg, &mut sink).expect("well-formed");
            assert_eq!(sink.finish().len(), depth);
            sink.stats()
        };
        assert_eq!(path_stats.live_high_water, depth, "path hw is the depth");
        assert_eq!(phr_stats.live_high_water, depth, "phr hw is the depth");
        extras.push(stats_json(
            "chain",
            depth,
            src.len(),
            &path_stats,
            &phr_stats,
            None,
        ));
    }

    group.attach_extra("memory_proxy", Json::Arr(extras));
    group.finish();
}

/// One memory-proxy record: the node count (what the PHR sink's arena
/// holds) against the transient high-waters of both sinks.
fn stats_json(
    shape: &str,
    nodes: usize,
    bytes: usize,
    path: &StreamStats,
    phr: &StreamStats,
    exists: Option<&StreamStats>,
) -> Json {
    let mut fields = vec![
        ("shape", Json::Str(shape.to_string())),
        ("nodes", Json::Num(nodes as f64)),
        ("bytes", Json::Num(bytes as f64)),
        ("depth_high_water", Json::Num(path.depth_high_water as f64)),
        (
            "path_live_high_water",
            Json::Num(path.live_high_water as f64),
        ),
        ("phr_live_high_water", Json::Num(phr.live_high_water as f64)),
        (
            "phr_live_over_nodes",
            Json::Num(phr.live_high_water as f64 / nodes as f64),
        ),
        ("events", Json::Num(phr.events as f64)),
    ];
    if let Some(e) = exists {
        fields.push(("exists_events", Json::Num(e.events as f64)));
        fields.push(("exists_early_exit", Json::Bool(e.early_exit)));
    }
    Json::obj(fields)
}
