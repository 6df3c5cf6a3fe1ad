//! Property tests for the parallel execution layer: `ParallelEvaluator`
//! must be indistinguishable from the sequential evaluator on any corpus,
//! for any worker count.

use hedgex::hedge::{Hedge, SymId, Tree, VarId};
use hedgex::prelude::*;
use hedgex_testkit::prop::shrink_vec;
use hedgex_testkit::{forall, prop_assert_eq, Config, Gen, Rng};

/// A random tree over 3 symbols and 2 variables, with bounded depth/width.
fn gen_tree(rng: &mut Rng, depth: usize) -> Tree {
    if depth == 0 || rng.random_bool(0.35) {
        if rng.random_bool(0.4) {
            Tree::Var(VarId(rng.random_range(0..2u32)))
        } else {
            Tree::Node(SymId(rng.random_range(0..3u32)), Hedge::empty())
        }
    } else {
        let label = SymId(rng.random_range(0..3u32));
        let width = rng.random_range(0..4usize);
        Tree::Node(
            label,
            Hedge((0..width).map(|_| gen_tree(rng, depth - 1)).collect()),
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

fn gen_hedge(rng: &mut Rng) -> Hedge {
    let width = rng.random_range(0..4usize);
    Hedge((0..width).map(|_| gen_tree(rng, 3)).collect())
}

/// A corpus of 1–5 random documents.
fn arb_corpus() -> Gen<Vec<Hedge>> {
    Gen::new(|rng| {
        let docs = rng.random_range(1..6usize);
        (0..docs).map(|_| gen_hedge(rng)).collect::<Vec<Hedge>>()
    })
    .with_shrink(|v| {
        shrink_vec(v, |h| {
            shrink_vec(&h.0, shrink_tree)
                .into_iter()
                .map(Hedge)
                .collect()
        })
        .into_iter()
        .filter(|v| !v.is_empty())
        .collect()
    })
}

/// The alphabet the generators draw from — symbols a,b,c are SymId 0..3
/// and variables x,y are VarId 0..2, so parsed query names line up with
/// generated labels.
fn alphabet() -> Alphabet {
    let mut ab = Alphabet::new();
    ab.sym("a");
    ab.sym("b");
    ab.sym("c");
    ab.var("x");
    ab.var("y");
    ab
}

const QUERIES: [&str; 4] = [
    "[ε ; a ; ε]*",
    "[(a|b)* a ; b ; b (a|b)*]",
    "[a* ; b ; ($x|$y)*]",
    "([a* ; b ; a*]|[ε ; a ; ε])*",
];

#[test]
fn parallel_evaluation_equals_sequential() {
    let mut ab = alphabet();
    let plans: Vec<Plan> = QUERIES
        .iter()
        .map(|q| Plan::compile(&parse_phr(q, &mut ab).unwrap()))
        .collect();

    forall(
        "parallel_evaluation_equals_sequential",
        Config::with_cases(300),
        &arb_corpus(),
        |corpus| {
            let flats: Vec<FlatHedge> = corpus.iter().map(FlatHedge::from_hedge).collect();
            let mut scratch = EvalScratch::new();
            for plan in &plans {
                let seq: Vec<Vec<u32>> = flats
                    .iter()
                    .map(|f| plan.locate_into(f, &mut scratch).to_vec())
                    .collect();
                for jobs in [1, 2, 7] {
                    let par = ParallelEvaluator::new(jobs).eval_corpus(plan, &flats);
                    prop_assert_eq!(&par, &seq);
                }
            }
            // The dual fan-out — many plans over one document — must agree
            // with evaluating each plan in turn.
            let seq_plans: Vec<Vec<u32>> = plans
                .iter()
                .map(|p| p.locate_into(&flats[0], &mut scratch).to_vec())
                .collect();
            for jobs in [1, 2, 7] {
                let par = ParallelEvaluator::new(jobs).map_with_scratch(plans.len(), |s, i| {
                    plans[i].locate_into(&flats[0], s).to_vec()
                });
                prop_assert_eq!(&par, &seq_plans);
            }
            Ok(())
        },
    );
}
