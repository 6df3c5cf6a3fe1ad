//! Experiment E11 — the persistent store: cold re-parse vs warm in-memory
//! evaluation vs index-pruned evaluation over a static DocBook corpus.
//!
//! Three ways to answer the same corpus query:
//!
//! * **cold** — no store at all: every query re-parses the XML sources and
//!   evaluates, on `hxq FILE`'s route (`parse_flat`, then
//!   `Plan::eval_into`) — the "grep a directory" baseline;
//! * **warm** — documents pre-parsed into [`FlatHedge`]s, plain two-pass
//!   evaluation over every node of every document;
//! * **indexed** — a [`DocumentStore`]: per-document postings answer the
//!   required-symbol check in O(1), and the two-pass traversal visits only
//!   the ancestors-closure of candidate ranges.
//!
//! On the *broad* query (figures inside sections — most documents match)
//! the index can't skip much and indexed ≈ warm: the point of that row is
//! that pruning never costs. The headline is the *selective* query: 5% of
//! the corpus carries a `sidebar` element, so the index proves 95% of the
//! documents matchless without touching a node, and inside the rare
//! documents the candidate range excludes every `article` subtree. The
//! group report carries a measured `pruned_vs_warm` pair on that query
//! (acceptance floor: ≥ 2×), plus the store's load throughput.
//!
//! The store image is also held to its exact size: the header, the three
//! alphabet tables, and per document its name and one 9-byte record per
//! node. The structural index is derived on load, so an image that grows
//! a serialized index fails this bench in smoke mode too, with no timing
//! involved.
//!
//! The `*_path` rows answer the same two queries on the path backend
//! (`Plan::path`, Section 8's top-down DFA), which is what `hxq --store
//! --path` runs; the rows without the suffix keep the §5 embedding
//! (universal PHR) for comparison. `path_backend_vs_embedding` records
//! both indexed medians and both compile times.

use std::time::Instant;

use hedgex_testkit::{Bench, Json, Throughput};

use hedgex_bench::sidebar_corpus;
use hedgex_core::{parse_path, two_pass, EvalMode, EvalScratch, Plan};
use hedgex_hedge::{Alphabet, FlatHedge};
use hedgex_store::store::HEADER_LEN;
use hedgex_store::{DocumentStore, StoreQuery};
use hedgex_stream::parse_flat;
use hedgex_xml::{parse_xml, to_hedge, write_xml, HedgeConfig};

/// Median wall time of `k` runs of `f`, in nanoseconds.
fn median_ns(k: usize, mut f: impl FnMut()) -> f64 {
    let mut samples: Vec<u128> = (0..k)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(&mut f)();
            t.elapsed().as_nanos()
        })
        .collect();
    samples.sort_unstable();
    samples[k / 2] as f64
}

/// Compile a path query through the §5 embedding: the universal PHR,
/// whose plan derives the required-symbol facts for the postings
/// quick-reject itself.
fn store_plan(src: &str, ab: &mut Alphabet) -> Plan {
    let path = parse_path(src, ab).expect("bench path parses");
    let syms: Vec<_> = ab.syms().collect();
    let vars: Vec<_> = ab.vars().collect();
    let z = ab.sub("bench-universal");
    Plan::compile(&path.to_phr(&syms, &vars, z))
}

/// The exact byte size of a store image: header, alphabet tables (a count
/// plus a length-prefixed name each), document count, and per document a
/// length-prefixed name, a node count and one `(tag u8, label u32,
/// parent u32)` record per node. Nothing else: no serialized index.
fn expected_image_len(store: &DocumentStore) -> usize {
    fn table<'a>(names: impl Iterator<Item = &'a str>) -> usize {
        4 + names.map(|n| 4 + n.len()).sum::<usize>()
    }
    let ab = store.alphabet();
    let alphabet = table(ab.syms().map(|a| ab.sym_name(a)))
        + table(ab.vars().map(|x| ab.var_name(x)))
        + table(ab.subs().map(|z| ab.sub_name(z)));
    let docs: usize = store
        .docs()
        .iter()
        .map(|d| 8 + d.name().len() + 9 * d.hedge().num_nodes())
        .sum();
    HEADER_LEN + alphabet + 4 + docs
}

fn warm_count(plan: &Plan, docs: &[FlatHedge], scratch: &mut EvalScratch) -> u64 {
    docs.iter()
        .map(|d| plan.eval_into(d, scratch, EvalMode::Count).matched())
        .sum()
}

fn indexed_count(query: &StoreQuery<'_>) -> u64 {
    query.count_corpus(1).iter().sum()
}

fn main() {
    let mut c = Bench::from_env();
    let smoke = c.smoke();
    let (num_docs, nodes_per_doc) = if smoke { (24, 400) } else { (120, 2_000) };

    let (mut ab, named, rare_docs) = sidebar_corpus(num_docs, nodes_per_doc, 0xE11);
    let store = DocumentStore::build(ab.clone(), named.clone());
    let bytes = store.to_bytes();
    assert_eq!(
        bytes.len(),
        expected_image_len(&store),
        "the store image must hold the alphabet and node records only"
    );
    let docs: Vec<FlatHedge> = named.iter().map(|(_, h)| h.clone()).collect();
    let sources: Vec<String> = docs.iter().map(|d| write_xml(d, &ab, None)).collect();
    let total_nodes = store.total_nodes();

    let broad = store_plan("article section* figure", &mut ab);
    let selective = store_plan("sidebar", &mut ab);
    let broad_q = StoreQuery::new(&store, &broad);
    let selective_q = StoreQuery::new(&store, &selective);
    // What `hxq --store --path` compiles: the DFA over the store alphabet.
    let path_plan = |src: &str, ab: &mut Alphabet| {
        let path = parse_path(src, ab).expect("bench path parses");
        Plan::path(&path, ab)
    };
    let broad_path = path_plan("article section* figure", &mut ab);
    let selective_path = path_plan("sidebar", &mut ab);
    let broad_path_q = StoreQuery::new(&store, &broad_path);
    let selective_path_q = StoreQuery::new(&store, &selective_path);

    // Correctness before time: the three routes must agree, and the
    // selective query must really be selective (one sidebar per rare doc).
    let mut scratch = EvalScratch::new();
    let broad_want = warm_count(&broad, &docs, &mut scratch);
    assert!(broad_want > 0, "broad query must match the corpus");
    assert_eq!(indexed_count(&broad_q), broad_want);
    assert_eq!(indexed_count(&selective_q), rare_docs as u64);
    assert_eq!(
        warm_count(&selective, &docs, &mut scratch),
        rare_docs as u64
    );
    assert_eq!(indexed_count(&broad_path_q), broad_want);
    assert_eq!(indexed_count(&selective_path_q), rare_docs as u64);
    let reloaded = DocumentStore::from_bytes(&bytes).expect("store round-trips");
    assert_eq!(reloaded.len(), docs.len());
    // The cold route re-parses the sources: it must rebuild each document,
    // as the tree route does, and count what the reference traversals
    // locate on it.
    let cfg = HedgeConfig {
        keep_text: true,
        keep_attrs: false,
    };
    let mut cold_ab = ab.clone();
    for (src, doc) in sources.iter().zip(&docs) {
        let flat = parse_flat(src, &mut cold_ab, cfg).expect("round-trip parses");
        let oracle = to_hedge(&parse_xml(src).expect("parses"), &mut cold_ab, cfg);
        assert!(flat == FlatHedge::from_hedge(&oracle) && flat == *doc);
    }
    let reference: usize = docs
        .iter()
        .map(|d| two_pass::locate(broad.compiled(), d).len())
        .sum();
    assert_eq!(broad_want, reference as u64);

    let mut group = c.benchmark_group("E11_store");
    group.sample_size(10);
    group.throughput(Throughput::Elements(total_nodes));

    // The no-store baseline: every query re-parses the corpus.
    group.bench_function("cold_parse_count_broad", |b| {
        b.iter(|| {
            let mut scratch = EvalScratch::new();
            let total: u64 = sources
                .iter()
                .map(|src| {
                    let flat = parse_flat(src, &mut cold_ab, cfg).expect("round-trip parses");
                    broad
                        .eval_into(&flat, &mut scratch, EvalMode::Count)
                        .matched()
                })
                .sum();
            std::hint::black_box(total)
        })
    });
    group.bench_function("warm_count_broad", |b| {
        b.iter(|| std::hint::black_box(warm_count(&broad, &docs, &mut scratch)))
    });
    group.bench_function("indexed_count_broad", |b| {
        b.iter(|| std::hint::black_box(indexed_count(&broad_q)))
    });
    group.bench_function("warm_count_selective", |b| {
        b.iter(|| std::hint::black_box(warm_count(&selective, &docs, &mut scratch)))
    });
    group.bench_function("indexed_count_selective", |b| {
        b.iter(|| std::hint::black_box(indexed_count(&selective_q)))
    });
    group.bench_function("indexed_count_broad_path", |b| {
        b.iter(|| std::hint::black_box(indexed_count(&broad_path_q)))
    });
    group.bench_function("indexed_count_selective_path", |b| {
        b.iter(|| std::hint::black_box(indexed_count(&selective_path_q)))
    });
    group.bench_function("load_store", |b| {
        b.iter(|| std::hint::black_box(DocumentStore::from_bytes(&bytes).expect("loads").len()))
    });

    // Direct speedup evidence for the acceptance floor (indexed ≥ 2× over
    // warm on the selective query): medians of a measured pair.
    let k = if smoke { 3 } else { 11 };
    let warm_ns = median_ns(k, || {
        std::hint::black_box(warm_count(&selective, &docs, &mut scratch));
    });
    let indexed_ns = median_ns(k, || {
        std::hint::black_box(indexed_count(&selective_q));
    });
    let speedup = warm_ns / indexed_ns.max(1.0);
    group.attach_extra(
        "pruned_vs_warm",
        Json::obj([
            ("docs", Json::Num(docs.len() as f64)),
            ("rare_docs", Json::Num(rare_docs as f64)),
            ("total_nodes", Json::Num(total_nodes as f64)),
            ("warm_median_ns", Json::Num(warm_ns)),
            ("indexed_median_ns", Json::Num(indexed_ns)),
            ("speedup", Json::Num(speedup)),
        ]),
    );
    assert!(
        speedup >= 2.0,
        "indexed evaluation must beat warm in-memory by >= 2x on the \
         selective query, got {speedup:.2}x ({warm_ns:.0} ns vs {indexed_ns:.0} ns)"
    );

    // The path backend against the embedding: indexed evaluation on both
    // queries, and the compile a cold `hxq --store --path` pays per query.
    let mut versus = Vec::new();
    for (name, embedding_q, path_q) in [
        ("broad", &broad_q, &broad_path_q),
        ("selective", &selective_q, &selective_path_q),
    ] {
        let embedding_ns = median_ns(k, || {
            std::hint::black_box(indexed_count(embedding_q));
        });
        let path_ns = median_ns(k, || {
            std::hint::black_box(indexed_count(path_q));
        });
        versus.push((
            name,
            Json::obj([
                ("embedding_median_ns", Json::Num(embedding_ns)),
                ("path_median_ns", Json::Num(path_ns)),
                ("speedup", Json::Num(embedding_ns / path_ns.max(1.0))),
            ]),
        ));
    }
    let mut compile_ab = ab.clone();
    let embedding_compile_ns = median_ns(k, || {
        std::hint::black_box(store_plan("article section* figure", &mut compile_ab));
    });
    let path_compile_ns = median_ns(k, || {
        std::hint::black_box(path_plan("article section* figure", &mut compile_ab));
    });
    versus.push((
        "compile_broad",
        Json::obj([
            ("embedding_median_ns", Json::Num(embedding_compile_ns)),
            ("path_median_ns", Json::Num(path_compile_ns)),
            (
                "speedup",
                Json::Num(embedding_compile_ns / path_compile_ns.max(1.0)),
            ),
        ]),
    ));
    group.attach_extra("path_backend_vs_embedding", Json::obj(versus));
    group.finish();
}
