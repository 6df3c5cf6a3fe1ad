//! The path-backend differential suite: a path [`Plan`] (Section 8's
//! top-down DFA, [`Plan::path`]) must locate exactly what the reference
//! evaluator `PathExpr::locate` locates, and exactly what the Section 5
//! embedding (universal sibling conditions, two-pass Algorithm 1) locates
//! — in every mode, sequentially, through the worker pool, and through a
//! store with both index prunes.
//!
//! The plans are compiled before the documents' last two symbols are
//! interned, so every document node labelled with one of them takes the
//! DFA's co-finite column — the path every `hxq` query takes for names it
//! never mentions.
//!
//! Runs on `hedgex-testkit`'s shrinking `forall` runner and is exercised
//! by CI both with default features and with `--no-default-features`.

use std::cell::RefCell;

use hedgex::core::path_expr::{parse_path, PathExpr};
use hedgex::core::two_pass;
use hedgex::hedge::{Hedge, SymId, Tree, VarId};
use hedgex::prelude::*;
use hedgex_testkit::prop::shrink_vec;
use hedgex_testkit::{forall, prop_assert_eq, zip2, Config, Gen, Rng};

/// A random document tree over symbols {0, 1, 2, 3} and one variable.
fn gen_tree(rng: &mut Rng, depth: usize) -> Tree {
    if depth == 0 || rng.random_bool(0.4) {
        if rng.random_bool(0.25) {
            Tree::Var(VarId(0))
        } else {
            Tree::Node(SymId(rng.random_range(0..4u32)), Hedge::empty())
        }
    } else {
        Tree::Node(
            SymId(rng.random_range(0..4u32)),
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

/// A corpus of 0–4 random documents.
fn arb_corpus() -> Gen<Vec<Hedge>> {
    Gen::new(|rng| {
        (0..rng.random_range(0..5usize))
            .map(|_| {
                Hedge(
                    (0..rng.random_range(0..4usize))
                        .map(|_| gen_tree(rng, 3))
                        .collect(),
                )
            })
            .collect::<Vec<Hedge>>()
    })
    .with_shrink(|docs| {
        shrink_vec(docs, |h| {
            shrink_vec(&h.0, shrink_tree)
                .into_iter()
                .map(Hedge)
                .collect()
        })
    })
}

fn pick_query(n: usize) -> Gen<usize> {
    Gen::new(move |rng| rng.random_range(0..n))
}

/// One path query in its three compiled forms.
struct Case {
    path: PathExpr,
    plan: Plan,
    embedding: CompiledPhr,
}

/// The path pool, compiled over `{a, b}`; `d` and `e` (SymIds 2 and 3)
/// are interned only afterwards, and the embeddings cover them (their
/// universal expressions must range over every document symbol). Returns
/// the full alphabet.
fn pool() -> (Alphabet, Vec<Case>) {
    let mut ab = Alphabet::new();
    assert_eq!(ab.sym("a"), SymId(0));
    assert_eq!(ab.sym("b"), SymId(1));
    assert_eq!(ab.var("v"), VarId(0));
    let compiled: Vec<(PathExpr, Plan)> = [
        "a", "b", "a b", "a* b", "(a|b) b", "a b? a", "(a b)* a", "(a|b)*",
    ]
    .iter()
    .map(|src| {
        let path = parse_path(src, &mut ab).unwrap();
        let plan = Plan::path(&path, &ab);
        (path, plan)
    })
    .collect();
    assert_eq!(ab.sym("d"), SymId(2), "interned after every compile");
    assert_eq!(ab.sym("e"), SymId(3), "interned after every compile");
    let syms: Vec<_> = ab.syms().collect();
    let vars: Vec<_> = ab.vars().collect();
    let z = ab.sub("props-universal");
    let cases = compiled
        .into_iter()
        .map(|(path, plan)| {
            let embedding = CompiledPhr::compile(&path.to_phr(&syms, &vars, z));
            Case {
                path,
                plan,
                embedding,
            }
        })
        .collect();
    (ab, cases)
}

#[test]
fn path_plans_agree_with_locate_and_the_embedding_everywhere() {
    let (ab, cases) = pool();
    let scratch = RefCell::new(EvalScratch::new());
    forall(
        "path_plan_differential",
        Config::with_cases(300),
        &zip2(pick_query(cases.len()), arb_corpus()),
        |(i, docs)| {
            let Case {
                path,
                plan,
                embedding,
            } = &cases[*i];
            let s = &mut *scratch.borrow_mut();
            let flats: Vec<FlatHedge> = docs.iter().map(FlatHedge::from_hedge).collect();
            let wants: Vec<Vec<u32>> = flats.iter().map(|f| path.locate(f)).collect();

            for (d, (flat, want)) in flats.iter().zip(&wants).enumerate() {
                let n = want.len() as u64;
                let some = !want.is_empty();
                // The §5 embedding, every mode.
                prop_assert_eq!(
                    &two_pass::locate(embedding, flat),
                    want,
                    "embedding, path {} doc {}",
                    i,
                    d
                );
                prop_assert_eq!(
                    two_pass::eval_into(embedding, flat, None, s, EvalMode::Count).0,
                    EvalOutcome::Count(n)
                );
                prop_assert_eq!(
                    two_pass::eval_into(embedding, flat, None, s, EvalMode::Exists).0,
                    EvalOutcome::Exists(some)
                );
                // The path backend, every front door.
                prop_assert_eq!(
                    plan.locate_into(flat, s),
                    &want[..],
                    "plan, path {} doc {}",
                    i,
                    d
                );
                prop_assert_eq!(plan.locate(flat), want.clone());
                let mut cold = EvalScratch::new();
                prop_assert_eq!(
                    plan.eval_into(flat, &mut cold, EvalMode::Count),
                    EvalOutcome::Count(n)
                );
                prop_assert_eq!(
                    plan.eval_into(flat, &mut cold, EvalMode::Exists),
                    EvalOutcome::Exists(some)
                );
                prop_assert_eq!(
                    plan.eval_into(flat, s, EvalMode::Count),
                    EvalOutcome::Count(n)
                );
                prop_assert_eq!(
                    plan.eval_into(flat, s, EvalMode::Exists),
                    EvalOutcome::Exists(some)
                );
            }

            let counts: Vec<u64> = wants.iter().map(|w| w.len() as u64).collect();
            let some: Vec<bool> = wants.iter().map(|w| !w.is_empty()).collect();
            for jobs in [1usize, 2] {
                let ev = ParallelEvaluator::new(jobs);
                prop_assert_eq!(&ev.eval_corpus(plan, &flats), &wants, "pool jobs {}", jobs);
                let corpus = |mode| {
                    ev.map_with_scratch(flats.len(), |s, d| plan.eval_into(&flats[d], s, mode))
                };
                let counted: Vec<EvalOutcome> =
                    counts.iter().map(|&n| EvalOutcome::Count(n)).collect();
                prop_assert_eq!(&corpus(EvalMode::Count), &counted);
                let found: Vec<EvalOutcome> =
                    some.iter().map(|&b| EvalOutcome::Exists(b)).collect();
                prop_assert_eq!(&corpus(EvalMode::Exists), &found);
            }

            // Indexed: the postings reject and the candidate-range gate.
            let named: Vec<(String, FlatHedge)> = flats
                .iter()
                .enumerate()
                .map(|(d, f)| (format!("doc{d:02}.xml"), f.clone()))
                .collect();
            let store = DocumentStore::build(ab.clone(), named);
            let query = StoreQuery::new(&store, plan);
            let mut candidates = Vec::new();
            for (d, doc) in store.docs().iter().enumerate() {
                let want = &wants[d];
                let outcome = query.eval_doc_into(doc, s, &mut candidates, EvalMode::Locate);
                prop_assert_eq!(s.located(), &want[..], "indexed, path {} doc {}", i, d);
                prop_assert_eq!(outcome, EvalOutcome::Located(want.len()));
                prop_assert_eq!(
                    query.eval_doc_into(doc, s, &mut candidates, EvalMode::Count),
                    EvalOutcome::Count(want.len() as u64)
                );
                prop_assert_eq!(
                    query.eval_doc_into(doc, s, &mut candidates, EvalMode::Exists),
                    EvalOutcome::Exists(!want.is_empty())
                );
            }
            for jobs in [1usize, 2] {
                prop_assert_eq!(&query.locate_corpus(jobs), &wants, "store jobs {}", jobs);
                prop_assert_eq!(&query.count_corpus(jobs), &counts);
                prop_assert_eq!(&query.exists_corpus(jobs), &some);
            }
            Ok(())
        },
    );
}

/// The co-finite column, pinned: a plan compiled before `d` existed steps
/// `d` like any unmentioned name, so `a*` stops at the first `d` and `d`
/// is never a candidate label.
#[test]
fn symbols_interned_after_compile_take_the_cofinite_column() {
    let mut ab = Alphabet::new();
    let path = parse_path("a*", &mut ab).unwrap();
    let plan = Plan::path(&path, &ab);
    let doc = parse_hedge("a<d<a> a<a>> d", &mut ab).unwrap();
    let flat = FlatHedge::from_hedge(&doc);
    assert_eq!(plan.locate(&flat), path.locate(&flat));
    assert_eq!(plan.locate(&flat), vec![0, 3, 4]);
    assert_eq!(plan.match_syms(), Some(vec![ab.get_sym("a").unwrap()]));
}
