//! The mode-consistency differential suite (ISSUE 9 tentpole): on every
//! generated (query, document) pair, all three evaluation modes must tell
//! one story — `count` equals `locate().len()` and `exists` equals
//! `!locate().is_empty()` — whichever engine runs them: the materialized
//! two-pass core, the [`Plan`] front door, the push-based [`PhrStream`]
//! finishers, or the [`ParallelEvaluator`] worker pool. Every mode runs
//! on one walk — it prunes provably barren subtrees, and the mode only
//! decides what happens at an accepting node — so the walk itself is
//! checked against the literal two traversals of Algorithm 1
//! (`two_pass::locate`), ungated and behind an index gate.
//!
//! Graded child constraints (`e{>=n}` / `e{<=n}`) are checked against the
//! declarative oracle: the parse-time desugaring must denote exactly the
//! hand-expanded language, on random hedges, through both `Hre::matches`
//! and `locate_naive`.
//!
//! Runs on `hedgex-testkit`'s shrinking `forall` runner and is exercised
//! by CI both with default features and with `--no-default-features`
//! (modes must not depend on instrumentation).

use std::cell::RefCell;

use hedgex::core::phr::Phr;
use hedgex::core::{CompiledPhr, Hre, PruneInfo};
use hedgex::hedge::flat::FlatLabel;
use hedgex::hedge::{Hedge, NodeId, SymId, Tree, VarId};
use hedgex::prelude::*;
use hedgex_testkit::prop::shrink_vec;
use hedgex_testkit::{forall, prop_assert, prop_assert_eq, zip2, Config, Gen, Rng};

// ---------------------------------------------------------------------------
// Generators (same document distribution as tests/stream_props.rs)
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

/// PHR pool over {a, b}: the stream-props shapes plus graded components,
/// so the mode agreement covers desugared `{>=n}`/`{<=n}` too.
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
        "[a{>=2} ; b ; ε]".to_string(),
        "[(a|b){<=1} ; a ; a{>=1}]".to_string(),
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

// ---------------------------------------------------------------------------
// Mode consistency
// ---------------------------------------------------------------------------

/// The tentpole claim: every engine, every mode, one answer. `locate` is
/// the ground truth (itself checked against `locate_naive` elsewhere);
/// count and exists must agree with it through the core entry points, the
/// plan (with its known-empty and required-symbol gates), the outcome
/// dispatcher, the streaming finishers, and the worker pool.
#[test]
fn count_and_exists_agree_with_locate_everywhere() {
    let pool = phr_pool();
    let scratch = RefCell::new(EvalScratch::new());
    forall(
        "mode_consistency",
        Config::with_cases(300),
        &zip2(pick_query(pool.len()), arb_doc()),
        |(i, doc)| {
            let (_, compiled, plan) = &pool[*i];
            let flat = FlatHedge::from_hedge(doc);
            let located = plan.locate_into(&flat, &mut scratch.borrow_mut()).to_vec();
            let n = located.len() as u64;
            let some = !located.is_empty();

            // Materialized core.
            let s = &mut *scratch.borrow_mut();
            prop_assert_eq!(
                two_pass::eval_into(compiled, &flat, None, s, EvalMode::Count).0,
                EvalOutcome::Count(n),
                "two_pass count on {:?}",
                doc
            );
            prop_assert_eq!(
                two_pass::eval_into(compiled, &flat, None, s, EvalMode::Exists).0,
                EvalOutcome::Exists(some),
                "two_pass exists on {:?}",
                doc
            );

            // Plan front door (known-empty / required-symbol gates active).
            prop_assert_eq!(
                cold(plan, &flat, EvalMode::Count),
                EvalOutcome::Count(n),
                "Plan count on {:?}",
                doc
            );
            prop_assert_eq!(
                cold(plan, &flat, EvalMode::Exists),
                EvalOutcome::Exists(some),
                "Plan exists on {:?}",
                doc
            );

            // The mode dispatcher ties outcomes to the same answers.
            prop_assert_eq!(
                plan.eval_into(&flat, s, EvalMode::Locate),
                EvalOutcome::Located(n as usize)
            );
            prop_assert_eq!(
                plan.eval_into(&flat, s, EvalMode::Count),
                EvalOutcome::Count(n)
            );
            prop_assert_eq!(
                plan.eval_into(&flat, s, EvalMode::Exists),
                EvalOutcome::Exists(some)
            );

            // Streaming finishers (fresh sink per mode; one pass each).
            let mut sink = PhrStream::new(compiled);
            prop_assert!(replay_flat(&flat, &mut sink));
            prop_assert_eq!(sink.finish_count(), n, "finish_count on {:?}", doc);
            let mut sink = PhrStream::new(compiled);
            prop_assert!(replay_flat(&flat, &mut sink));
            prop_assert_eq!(sink.finish_exists(), some, "finish_exists on {:?}", doc);

            // Worker pool (a singleton corpus exercises the dispatch).
            let docs = [flat];
            let ev = ParallelEvaluator::new(2);
            let corpus =
                |mode| ev.map_with_scratch(docs.len(), |s, i| plan.eval_into(&docs[i], s, mode));
            prop_assert_eq!(corpus(EvalMode::Count), vec![EvalOutcome::Count(n)]);
            prop_assert_eq!(
                corpus(EvalMode::Count)
                    .iter()
                    .map(EvalOutcome::matched)
                    .sum::<u64>(),
                n
            );
            prop_assert_eq!(corpus(EvalMode::Exists), vec![EvalOutcome::Exists(some)]);
            Ok(())
        },
    );
}

/// One run of `plan` in `mode` on a fresh scratch.
fn cold(plan: &Plan, flat: &FlatHedge, mode: EvalMode) -> EvalOutcome {
    plan.eval_into(flat, &mut EvalScratch::new(), mode)
}

/// The walk against the reference: on random (query, document) pairs,
/// `two_pass::eval_into` in all three modes must give exactly what the
/// literal two traversals give (`two_pass::locate` = `second_pass` over
/// `first_pass`) — with the gate open, behind a gate admitting every
/// node, and behind the gate a store would build from the `match_syms`
/// postings. The gated runs must also never prune a subtree holding a
/// match, and the all-nodes gate must prune nothing.
#[test]
fn walk_modes_equal_the_two_traversal_reference() {
    let pool = phr_pool();
    let scratch = RefCell::new(EvalScratch::new());
    forall(
        "walk_vs_reference",
        Config::with_cases(300),
        &zip2(pick_query(pool.len()), arb_doc()),
        |(i, doc)| {
            let (_, compiled, _) = &pool[*i];
            let flat = FlatHedge::from_hedge(doc);
            let want = two_pass::locate(compiled, &flat);
            let all: Vec<NodeId> = flat.preorder().collect();
            let postings: Vec<NodeId> = match compiled.match_syms() {
                None => all.clone(),
                Some(ms) => flat
                    .preorder()
                    .filter(|&n| matches!(flat.label(n), FlatLabel::Sym(a) if ms.contains(&a)))
                    .collect(),
            };
            let every = PruneInfo { candidates: &all };
            let indexed = PruneInfo {
                candidates: &postings,
            };
            let s = &mut *scratch.borrow_mut();
            for (gate, name) in [
                (None, "open"),
                (Some(&every), "all"),
                (Some(&indexed), "postings"),
            ] {
                let (out, skipped) =
                    two_pass::eval_into(compiled, &flat, gate, s, EvalMode::Locate);
                prop_assert_eq!(out, EvalOutcome::Located(want.len()), "{} {:?}", name, doc);
                prop_assert_eq!(s.located(), &want[..], "{} locate on {:?}", name, doc);
                if name != "postings" {
                    prop_assert_eq!(skipped, 0, "{} gate pruned on {:?}", name, doc);
                }
                let (out, _) = two_pass::eval_into(compiled, &flat, gate, s, EvalMode::Count);
                prop_assert_eq!(
                    out,
                    EvalOutcome::Count(want.len() as u64),
                    "{} {:?}",
                    name,
                    doc
                );
                let (out, _) = two_pass::eval_into(compiled, &flat, gate, s, EvalMode::Exists);
                prop_assert_eq!(
                    out,
                    EvalOutcome::Exists(!want.is_empty()),
                    "{} {:?}",
                    name,
                    doc
                );
            }
            Ok(())
        },
    );
}

// ---------------------------------------------------------------------------
// Graded bounds vs the declarative oracle
// ---------------------------------------------------------------------------

/// Graded sources paired with their hand-expanded spellings: both sides of
/// each pair must denote the same language.
const GRADED_PAIRS: &[(&str, &str)] = &[
    ("a{>=0}", "a*"),
    ("a{>=1}", "a a*"),
    ("a{>=3}", "a a a a*"),
    ("a{<=0}", "ε"),
    ("a{<=2}", "a? a?"),
    ("(a|b){>=2}", "(a|b) (a|b) (a|b)*"),
    ("b<a{>=1}>{<=1}", "b<a a*>?"),
    ("a{>=1}{<=1}", "(a a*)?"),
    ("(a b){<=2} b", "(a b)? (a b)? b"),
];

/// Parse-time desugaring is semantics-preserving: on random hedges, a
/// graded HRE matches exactly when its hand expansion does.
#[test]
fn graded_bounds_match_the_naive_oracle() {
    let pairs: Vec<(Hre, Hre)> = {
        let mut ab = Alphabet::new();
        ab.sym("a");
        ab.sym("b");
        GRADED_PAIRS
            .iter()
            .map(|(graded, manual)| {
                (
                    hedgex::core::parse_hre(graded, &mut ab).unwrap(),
                    hedgex::core::parse_hre(manual, &mut ab).unwrap(),
                )
            })
            .collect()
    };
    forall(
        "graded_vs_oracle",
        Config::with_cases(300),
        &zip2(pick_query(pairs.len()), arb_doc()),
        |(i, doc)| {
            let (graded, manual) = &pairs[*i];
            prop_assert_eq!(
                graded.matches(doc),
                manual.matches(doc),
                "{} on {:?}",
                GRADED_PAIRS[*i].0,
                doc
            );
            Ok(())
        },
    );
}

/// The same claim one layer up: a PHR with graded components locates (per
/// `locate_naive`, the declarative evaluator) exactly what the expanded
/// PHR locates — and the fast plan agrees in all three modes.
#[test]
fn graded_phrs_locate_like_their_expansions() {
    let (pairs, _ab) = {
        let mut ab = Alphabet::new();
        ab.sym("a");
        ab.sym("b");
        let srcs = [
            ("[a{>=2} ; b ; ε]", "[a a a* ; b ; ε]"),
            ("[ε ; a ; b{<=1}]", "[ε ; a ; b?]"),
            ("[a{>=1} ; b ; a{<=2}]", "[a a* ; b ; a? a?]"),
        ];
        let pairs: Vec<(Phr, Phr)> = srcs
            .iter()
            .map(|(g, m)| {
                (
                    parse_phr(g, &mut ab).unwrap(),
                    parse_phr(m, &mut ab).unwrap(),
                )
            })
            .collect();
        (pairs, ab)
    };
    let plans: Vec<(Plan, Plan)> = pairs
        .iter()
        .map(|(g, m)| (Plan::compile(g), Plan::compile(m)))
        .collect();
    forall(
        "graded_phr_vs_expansion",
        Config::with_cases(120),
        &zip2(pick_query(pairs.len()), arb_doc()),
        |(i, doc)| {
            let (graded, manual) = &pairs[*i];
            let flat = FlatHedge::from_hedge(doc);
            let expected = manual.locate_naive(&flat);
            prop_assert_eq!(&graded.locate_naive(&flat), &expected, "naive on {:?}", doc);
            let (gp, mp) = &plans[*i];
            prop_assert_eq!(&gp.locate(&flat), &expected, "plan locate on {:?}", doc);
            for mode in [EvalMode::Count, EvalMode::Exists] {
                prop_assert_eq!(
                    cold(gp, &flat, mode),
                    cold(mp, &flat, mode),
                    "{:?} on {:?}",
                    mode,
                    doc
                );
            }
            Ok(())
        },
    );
}
