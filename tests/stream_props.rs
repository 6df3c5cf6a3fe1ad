//! The streaming differential suite: on every generated (query, document)
//! pair, the push-based evaluators must locate *exactly* the nodes the
//! materialized pipeline locates — `PhrStream` against both the fast
//! two-pass `Plan` and the quadratic `locate_naive` reference, and
//! `PathStream` against `PathExpr::locate`. Node ids assigned while
//! streaming are preorder ranks, so the match sets compare with plain `==`
//! (no translation layer that could hide an off-by-one).
//!
//! Runs on `hedgex-testkit`'s shrinking `forall` runner and is exercised
//! by CI both with default features and with `--no-default-features`
//! (streaming must not depend on instrumentation).

use std::cell::RefCell;

use hedgex::core::phr::Phr;
use hedgex::core::CompiledPhr;
use hedgex::hedge::{Hedge, SymId, Tree, VarId};
use hedgex::prelude::*;
use hedgex_bench::doc_workload;
use hedgex_testkit::prop::shrink_vec;
use hedgex_testkit::{forall, prop_assert, prop_assert_eq, zip2, Config, Gen, Rng};

// ---------------------------------------------------------------------------
// Generators (same document distribution as tests/analysis_props.rs)
// ---------------------------------------------------------------------------

/// A random document tree over symbols {0, 1} and one variable.
fn gen_tree(rng: &mut Rng, depth: usize) -> Tree {
    if depth == 0 || rng.random_bool(0.4) {
        if rng.random_bool(0.25) {
            Tree::Var(VarId(0))
        } else {
            Tree::Node(SymId(rng.random_range(0..2u32)), Hedge::empty())
        }
    } else {
        Tree::Node(
            SymId(rng.random_range(0..2u32)),
            Hedge(
                (0..rng.random_range(0..4usize))
                    .map(|_| gen_tree(rng, depth - 1))
                    .collect(),
            ),
        )
    }
}

fn shrink_tree(t: &Tree) -> Vec<Tree> {
    match t {
        Tree::Node(a, h) => {
            let mut out: Vec<Tree> = h.0.clone();
            out.extend(
                shrink_vec(&h.0, shrink_tree)
                    .into_iter()
                    .map(|trees| Tree::Node(*a, Hedge(trees))),
            );
            out
        }
        Tree::Var(_) => vec![Tree::Node(SymId(0), Hedge::empty())],
        Tree::Subst(_) => vec![],
    }
}

fn arb_doc() -> Gen<Hedge> {
    Gen::new(|rng| {
        Hedge(
            (0..rng.random_range(0..4usize))
                .map(|_| gen_tree(rng, 3))
                .collect(),
        )
    })
    .with_shrink(|h| {
        shrink_vec(&h.0, shrink_tree)
            .into_iter()
            .map(Hedge)
            .collect()
    })
}

fn pick_query(n: usize) -> Gen<usize> {
    Gen::new(move |rng| rng.random_range(0..n))
}

/// PHR pool over {a, b}: depth-1 triplets, sibling conditions on both
/// sides, alternation, sequences, starred sequences (depth-matching), and
/// an unsatisfiable elder condition — the shapes that stress the
/// bottom-up `M`-run and the ≡-class assignment differently.
fn phr_pool() -> Vec<(Phr, CompiledPhr, Plan)> {
    let mut ab = Alphabet::new();
    let a = ab.sym("a");
    let b = ab.sym("b");
    assert_eq!((a, b), (SymId(0), SymId(1)), "generators assume this order");
    let u = "(a<%z>|b<%z>|$v)*^z";
    [
        "[ε ; a ; ε]".to_string(),
        "[ε ; a ; b]".to_string(),
        "[b ; a ; ε][ε ; b ; ε]".to_string(),
        format!("[{u} ; a ; {u}]"),
        format!("([ε ; a ; ε]|[{u} ; b ; a])"),
        format!("[{u} ; a ; {u}][ε ; b ; ε]*"),
        format!("([{u} ; a ; {u}]|[{u} ; b ; {u}])*"),
        "[a* ; b ; a*]".to_string(),
        "[a<%z>^z ; b ; ε]".to_string(),
    ]
    .iter()
    .map(|src| {
        // `$v` must intern as VarId(0) the first time it appears.
        let phr = parse_phr(src, &mut ab).unwrap();
        let compiled = CompiledPhr::compile(&phr);
        let plan = Plan::compile(&phr);
        (phr, compiled, plan)
    })
    .collect()
}

/// Classical path pool over {a, b}; the alphabet the pool interned into is
/// returned because `PathStream::new` compiles its dense table against it.
fn path_pool() -> (Alphabet, Vec<hedgex::core::path_expr::PathExpr>) {
    let mut ab = Alphabet::new();
    let a = ab.sym("a");
    let b = ab.sym("b");
    assert_eq!((a, b), (SymId(0), SymId(1)), "generators assume this order");
    let paths = ["a", "b", "a b", "a* b", "(a|b) b", "a b? a", "(a b)*  a"]
        .iter()
        .map(|src| parse_path(src, &mut ab).unwrap())
        .collect();
    (ab, paths)
}

// ---------------------------------------------------------------------------
// Properties
// ---------------------------------------------------------------------------

/// The tentpole claim, PHR side: replaying any document through
/// [`PhrStream`] locates exactly what the materialized two-pass plan and
/// the naive quadratic reference locate, and the Dewey addresses read off
/// the streamed arena agree with the real tree's.
#[test]
fn streamed_phr_equals_two_pass_and_naive() {
    let pool = phr_pool();
    let scratch = RefCell::new(EvalScratch::new());
    forall(
        "streamed_phr_differential",
        Config::with_cases(300),
        &zip2(pick_query(pool.len()), arb_doc()),
        |(i, doc)| {
            let (phr, compiled, plan) = &pool[*i];
            let flat = FlatHedge::from_hedge(doc);
            let mut sink = PhrStream::new(compiled);
            prop_assert!(
                replay_flat(&flat, &mut sink),
                "a PHR sink never stops early"
            );
            let streamed = sink.finish().to_vec();
            let fast = plan.locate_into(&flat, &mut scratch.borrow_mut()).to_vec();
            prop_assert_eq!(&streamed, &fast, "streamed vs locate_into on {:?}", doc);
            let naive = phr.locate_naive(&flat);
            prop_assert_eq!(&streamed, &naive, "streamed vs locate_naive on {:?}", doc);
            prop_assert_eq!(sink.num_nodes(), flat.num_nodes());
            for &n in &streamed {
                prop_assert_eq!(sink.dewey(n), flat.dewey(n), "dewey of {}", n);
            }
            Ok(())
        },
    );
}

/// The §8 degenerate case: [`PathStream`]'s single top-down DFA agrees
/// with `PathExpr::locate` (matches and Dewey addresses), and its
/// `exists` mode stops exactly when the full run would find something —
/// with the first located node as the witness.
#[test]
fn streamed_path_equals_materialized_locate() {
    let (ab, paths) = path_pool();
    forall(
        "streamed_path_differential",
        Config::with_cases(100),
        &zip2(pick_query(paths.len()), arb_doc()),
        |(i, doc)| {
            let path = &paths[*i];
            let flat = FlatHedge::from_hedge(doc);
            let mut sink = PathStream::new(path, &ab).collect_deweys(true);
            prop_assert!(replay_flat(&flat, &mut sink));
            let streamed = sink.finish().to_vec();
            let expected = path.locate(&flat);
            prop_assert_eq!(&streamed, &expected, "path {} on {:?}", i, doc);
            for (k, &n) in streamed.iter().enumerate() {
                prop_assert_eq!(&sink.deweys()[k], &flat.dewey(n), "dewey of {}", n);
            }

            let mut probe = PathStream::new(path, &ab).exists(true);
            let ran_out = replay_flat(&flat, &mut probe);
            probe.finish();
            prop_assert_eq!(probe.found(), !expected.is_empty(), "exists verdict");
            prop_assert_eq!(ran_out, expected.is_empty(), "stop iff something matched");
            if let Some(&first) = expected.first() {
                prop_assert_eq!(probe.located(), &[first][..], "witness is the first match");
            }
            Ok(())
        },
    );
}

/// End-to-end through real XML: the same bytes fed to `stream_xml` and to
/// `parse_xml → to_hedge → locate` yield identical match sets, under both
/// attribute mappings. Both pipelines intern query-then-document, so the
/// preorder ids coincide and no translation is needed.
#[test]
fn xml_streaming_equals_materialized_pipeline() {
    let phr_queries = ["[ε ; article ; ε]", "([ε ; figure ; ε]|[ε ; title ; ε])*"];
    let path_queries = ["article section* figure", "article title"];
    for seed in [3u64, 17, 40] {
        let w = doc_workload(400, seed);
        let src = write_xml(&w.doc, &w.ab, None);
        for keep_attrs in [false, true] {
            let cfg = HedgeConfig {
                keep_text: true,
                keep_attrs,
            };
            let materialize = |ab: &mut Alphabet| {
                let nodes = parse_xml(&src).unwrap();
                FlatHedge::from_hedge(&to_hedge(&nodes, ab, cfg))
            };
            for query in phr_queries {
                let mut ab = Alphabet::new();
                let phr = parse_phr(query, &mut ab).unwrap();
                let compiled = CompiledPhr::compile(&phr);
                let mut sink = PhrStream::new(&compiled);
                stream_xml(&src, &mut ab, cfg, &mut sink).unwrap();
                let streamed = sink.finish().to_vec();

                let mut ab2 = Alphabet::new();
                let phr2 = parse_phr(query, &mut ab2).unwrap();
                let flat = materialize(&mut ab2);
                let expected = two_pass::locate(&CompiledPhr::compile(&phr2), &flat);
                assert_eq!(streamed, expected, "{query} seed {seed} attrs {keep_attrs}");
                for &n in &streamed {
                    assert_eq!(sink.dewey(n), flat.dewey(n), "dewey of {n}");
                }
            }
            for query in path_queries {
                let mut ab = Alphabet::new();
                let path = parse_path(query, &mut ab).unwrap();
                let mut sink = PathStream::new(&path, &ab).collect_deweys(true);
                stream_xml(&src, &mut ab, cfg, &mut sink).unwrap();
                let streamed = sink.finish().to_vec();

                let mut ab2 = Alphabet::new();
                let path2 = parse_path(query, &mut ab2).unwrap();
                let flat = materialize(&mut ab2);
                let expected = path2.locate(&flat);
                assert_eq!(streamed, expected, "{query} seed {seed} attrs {keep_attrs}");
                for (k, &n) in streamed.iter().enumerate() {
                    assert_eq!(sink.deweys()[k], flat.dewey(n), "dewey of {n}");
                }
            }
        }
    }
}
